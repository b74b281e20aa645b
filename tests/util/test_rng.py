"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import RngStream, derive_rng


class TestRngStream:
    def test_same_seed_same_stream(self):
        a = RngStream(42).generator.random(8)
        b = RngStream(42).generator.random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).generator.random(8)
        b = RngStream(2).generator.random(8)
        assert not np.array_equal(a, b)

    def test_none_seed_is_fixed_default(self):
        assert RngStream(None).seed == RngStream(0).seed

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_child_is_deterministic(self):
        a = RngStream(7).child("x").generator.random(4)
        b = RngStream(7).child("x").generator.random(4)
        assert np.array_equal(a, b)

    def test_children_are_independent(self):
        root = RngStream(7)
        a = root.child("a").generator.random(16)
        b = root.child("b").generator.random(16)
        assert not np.array_equal(a, b)

    def test_child_name_records_lineage(self):
        assert RngStream(0, name="root").child("gen").name == "root/gen"

    def test_adding_consumer_does_not_shift_existing(self):
        """New salts must not perturb existing derived streams."""
        before = RngStream(9).child("existing").seed
        _ = RngStream(9).child("new-consumer")
        after = RngStream(9).child("existing").seed
        assert before == after


class TestDeriveRng:
    def test_accepts_int(self):
        assert isinstance(derive_rng(5), np.random.Generator)

    def test_accepts_none(self):
        a = derive_rng(None).random(4)
        b = derive_rng(None).random(4)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        g = np.random.default_rng(1)
        assert derive_rng(g) is g

    def test_accepts_stream_with_salt(self):
        s = RngStream(11)
        a = derive_rng(s, "x").random(4)
        b = derive_rng(RngStream(11), "x").random(4)
        assert np.array_equal(a, b)

    def test_salt_changes_stream(self):
        a = derive_rng(11, "x").random(4)
        b = derive_rng(11, "y").random(4)
        assert not np.array_equal(a, b)
