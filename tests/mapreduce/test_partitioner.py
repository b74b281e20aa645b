"""Tests for the hash partitioner."""

import pytest

from repro.mapreduce.partitioner import hash_partitioner


class TestHashPartitioner:
    def test_deterministic_across_calls(self):
        assert hash_partitioner("subject.42", 8) == hash_partitioner("subject.42", 8)

    def test_in_range(self):
        for key in ["a", "b", ("s", 1), 42, 3.14, b"bytes"]:
            assert 0 <= hash_partitioner(key, 5) < 5

    def test_tuple_keys(self):
        assert hash_partitioner(("s1", 1), 4) != hash_partitioner(("s1", -1), 4) or True
        # determinism is the contract; distinctness is probabilistic
        assert hash_partitioner(("s1", 1), 4) == hash_partitioner(("s1", 1), 4)

    def test_spread(self):
        """CRC over 1000 keys should touch every partition."""
        seen = {hash_partitioner(f"key{i}", 8) for i in range(1000)}
        assert seen == set(range(8))

    def test_bad_partition_count(self):
        with pytest.raises(ValueError):
            hash_partitioner("x", 0)

    def test_unsupported_key_type(self):
        with pytest.raises(TypeError):
            hash_partitioner(["list"], 4)
