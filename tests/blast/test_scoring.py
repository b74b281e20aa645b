"""Tests for the scoring scheme."""

import pytest

from repro.blast.params import BlastParams
from repro.blast.scoring import ScoringScheme


class TestScoringScheme:
    def test_from_params(self):
        s = ScoringScheme.from_params(BlastParams())
        assert (s.reward, s.penalty) == (1, -3)

    def test_match_probability_uniform(self):
        assert ScoringScheme(1, -3).match_probability == pytest.approx(0.25)

    def test_match_probability_skewed(self):
        s = ScoringScheme(1, -3, base_freqs=(0.4, 0.1, 0.1, 0.4))
        assert s.match_probability == pytest.approx(0.34)

    def test_score_pmf(self):
        pmf = ScoringScheme(1, -3).score_pmf()
        assert pmf == {1: 0.25, -3: 0.75}

    def test_expected_score_negative(self):
        assert ScoringScheme(1, -3).expected_score() < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoringScheme(0, -3)
        with pytest.raises(ValueError):
            ScoringScheme(1, 3)
        with pytest.raises(ValueError):
            ScoringScheme(1, -3, base_freqs=(0.5, 0.5, 0.0, 0.0))
