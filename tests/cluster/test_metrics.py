"""Tests for load-balance and speedup metrics."""

import pytest

from repro.cluster.metrics import (
    coefficient_of_variation,
    load_imbalance,
    parallel_efficiency,
    speedup_curve,
)


class TestCoefficientOfVariation:
    def test_paper_table_iii_numbers(self):
        """The paper reports mean 315.78, std 182.18, CV 0.58 — i.e. the
        standard std/mean definition despite the text's inverted wording."""
        assert 182.18 / 315.78 == pytest.approx(0.58, abs=0.01)

    def test_uniform_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        cv = coefficient_of_variation([1.0, 3.0])
        assert cv == pytest.approx(1.0 / 2.0)

    def test_all_zero(self):
        assert coefficient_of_variation([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([1.0, -1.0])


class TestLoadImbalance:
    def test_balanced(self):
        assert load_imbalance([2.0, 2.0]) == 1.0

    def test_imbalanced(self):
        assert load_imbalance([4.0, 0.0]) == 2.0

    def test_idle_cluster(self):
        assert load_imbalance([0.0, 0.0]) == 1.0


class TestParallelEfficiency:
    def test_linear_speedup(self):
        assert parallel_efficiency(4.0, 4.0) == 1.0

    def test_sublinear(self):
        assert parallel_efficiency(3.0, 4.0) == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 0.0)


class TestSpeedupCurve:
    def test_baseline_is_one(self):
        rows = speedup_curve([64, 128, 1024], [100.0, 55.0, 20.0])
        assert rows[0] == (64, 1.0, 1.0)
        assert rows[2][1] == pytest.approx(5.0)

    def test_efficiency_vs_baseline(self):
        rows = speedup_curve([64, 128], [100.0, 50.0])
        assert rows[1][2] == pytest.approx(1.0)  # perfect scaling

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup_curve([], [])
        with pytest.raises(ValueError):
            speedup_curve([64], [0.0])
