"""Tests for the paper's Equation 1 (fragment overlap length)."""

import math

import pytest

from repro.blast.params import BlastParams
from repro.blast.scoring import ScoringScheme
from repro.blast.statistics import effective_lengths, evalue, karlin_altschul
from repro.core.overlap import overlap_length, shortest_significant_alignment


def overlap_for_lengths(ka, params, query_length, db_length, num_db_sequences):
    """Equation 1 for raw lengths: effective search space, then the overlap."""
    space = effective_lengths(ka, query_length, db_length, num_db_sequences)
    return overlap_length(ka, params, space)


@pytest.fixture(scope="module")
def ka():
    return karlin_altschul(ScoringScheme(reward=1, penalty=-3))


class TestEquationOne:
    def test_formula_matches_paper(self, ka):
        """L = max(k, ceil(S_lb / p)) with S_lb = ceil(ln(K m n / E) / λ)."""
        params = BlastParams()
        space = effective_lengths(ka, 1_000_000, 122_653_977, 1170)  # Drosophila sizes
        s_lb = shortest_significant_alignment(ka, params, space)
        expected_s = math.ceil(
            math.log(ka.K * space.m_eff * space.n_eff / params.evalue_threshold) / ka.lam
        )
        assert s_lb == expected_s
        L = overlap_length(ka, params, space)
        assert L == max(params.k, math.ceil(s_lb / params.reward))

    def test_paper_scale_overlap_value(self, ka):
        """At the paper's Drosophila scale the overlap is tens of bp —
        tiny against Mbp fragments, which is why intra-query parallelism
        survives (Section III-C's downward pressure)."""
        L = overlap_for_lengths(ka, BlastParams(), 14_500_000, 122_653_977, 1170)
        assert 20 <= L <= 60

    def test_overlap_at_least_k(self, ka):
        """Degenerate tiny search spaces fall back to the k floor."""
        L = overlap_for_lengths(ka, BlastParams(), 30, 100, 1)
        assert L == BlastParams().k

    def test_overlap_grows_with_database(self, ka):
        params = BlastParams()
        small = overlap_for_lengths(ka, params, 100_000, 1_000_000, 10)
        big = overlap_for_lengths(ka, params, 100_000, 100_000_000_000, 10)
        assert big > small

    def test_scale_invariance_under_score_rescaling(self, ka):
        """Doubling every score halves λ and doubles S_lb, and dividing by
        the doubled reward cancels — Eq. 1's overlap (in base pairs) is
        invariant under rescaling the scoring system, as it must be."""
        p1 = BlastParams(reward=1, penalty=-3)
        p2 = BlastParams(reward=2, penalty=-6)
        ka2 = karlin_altschul(ScoringScheme(reward=2, penalty=-6))
        L1 = overlap_for_lengths(ka, p1, 1_000_000, 100_000_000, 100)
        L2 = overlap_for_lengths(ka2, p2, 1_000_000, 100_000_000, 100)
        assert abs(L1 - L2) <= 1  # up to integer rounding of S_lb

    def test_guarantee_property(self, ka):
        """Any alignment passing the E test spans more than L bases, so its
        restriction to one of the two fragments keeps ≥ L/2 > ... enough
        signal; concretely: an ungapped alignment of exactly S_lb score fits
        entirely inside the overlap window."""
        params = BlastParams()
        space = effective_lengths(ka, 1_000_000, 100_000_000, 1000)
        s_lb = shortest_significant_alignment(ka, params, space)
        L = overlap_length(ka, params, space)
        # a perfect match of L bases scores L*reward >= s_lb => passes E
        assert evalue(ka, L * params.reward, space) <= params.evalue_threshold

    def test_validation(self, ka):
        with pytest.raises(ValueError):
            overlap_for_lengths(ka, BlastParams(), 0, 100, 1)
