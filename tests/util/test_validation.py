"""Tests for the validation helpers."""

import pytest

from repro.util.validation import (
    check_fraction,
    check_nonnegative,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3) == 3

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", bad)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)


class TestCheckFraction:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_inclusive(self, ok):
        assert check_fraction("f", ok) == ok

    def test_exclusive_rejects_endpoints(self):
        with pytest.raises(ValueError):
            check_fraction("f", 0.0, inclusive=False)
        with pytest.raises(ValueError):
            check_fraction("f", 1.0, inclusive=False)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction("f", 1.5)
