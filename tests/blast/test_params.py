"""Tests for BLAST parameters (paper Table I) and search options."""

import pytest

from repro.blast.params import BlastParams, SearchOptions


class TestBlastParamsDefaults:
    """The defaults are the paper's Table I."""

    def test_table_i_values(self):
        p = BlastParams()
        assert p.k == 11
        assert p.x_drop_ungapped == 20
        assert p.x_drop_gapped == 15
        assert p.evalue_threshold == 10.0
        assert p.ungapped_threshold is None  # "N/A": derived per search

    def test_blastn_scoring_defaults(self):
        p = BlastParams()
        assert p.reward == 1
        assert p.penalty == -3
        assert (p.gap_open, p.gap_extend) == (5, 2)


class TestBlastParamsValidation:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            BlastParams(k=0)
        with pytest.raises(ValueError):
            BlastParams(k=32)

    def test_penalty_sign(self):
        with pytest.raises(ValueError):
            BlastParams(penalty=3)

    def test_reward_sign(self):
        with pytest.raises(ValueError):
            BlastParams(reward=0)

    def test_expected_score_must_be_negative(self):
        with pytest.raises(ValueError, match="expected per-base score"):
            BlastParams(reward=9, penalty=-1)

    @pytest.mark.parametrize("evalue", [0.0, -1.0, float("inf"), float("nan")])
    def test_evalue_threshold_finite_and_positive(self, evalue):
        with pytest.raises(ValueError, match="evalue_threshold"):
            BlastParams(evalue_threshold=evalue)

    def test_with_overrides(self):
        p = BlastParams().with_overrides(k=13)
        assert p.k == 13
        assert p.reward == 1

    def test_explicit_ungapped_threshold(self):
        assert BlastParams(ungapped_threshold=30).ungapped_threshold == 30
        with pytest.raises(ValueError):
            BlastParams(ungapped_threshold=0)


class TestSearchOptions:
    def test_defaults_plain(self):
        o = SearchOptions()
        assert not o.boundary_left and not o.boundary_right
        assert not o.speculative

    def test_speculative_requires_boundary(self):
        with pytest.raises(ValueError, match="speculative"):
            SearchOptions(speculative=True)

    def test_boundary_margin_nonnegative(self):
        with pytest.raises(ValueError):
            SearchOptions(boundary_margin=-1)

    def test_max_hsps_validated(self):
        with pytest.raises(ValueError):
            SearchOptions(max_hsps_per_subject=0)

    def test_valid_boundary_config(self):
        o = SearchOptions(boundary_left=True, boundary_margin=16, speculative=True)
        assert o.speculative
