"""Tests for seed finding and thinning."""

import numpy as np

from repro.blast.hsp import SeedHits
from repro.blast.lookup import QueryIndex
from repro.blast.seeds import thin_seeds
from repro.sequence.alphabet import encode, random_bases
from tests.conftest import seeds_of


class TestThinSeeds:
    def test_consecutive_run_collapses_to_head(self):
        # q == s: a 6-mer exact match with k=3 yields 4 seeds on diagonal 0
        q = encode("ACGTGC")
        idx = QueryIndex(q, 3)
        raw = seeds_of(idx, q, thin=False)
        thinned = seeds_of(idx, q, thin=True)
        diag0_raw = (raw.diagonals == 0).sum()
        diag0_thin = (thinned.diagonals == 0).sum()
        assert diag0_raw == 4
        assert diag0_thin == 1

    def test_separate_runs_survive(self):
        # Two exact matches separated by a mismatch region
        q = encode("AAAATTTTGGGG")
        s = encode("AAAACCCCGGGG")
        idx = QueryIndex(q, 4)
        thinned = seeds_of(idx, s, thin=True)
        # diagonal 0 has two runs (AAAA at 0, GGGG at 8)
        d0 = thinned.take(thinned.diagonals == 0)
        assert sorted(d0.q_pos.tolist()) == [0, 8]

    def test_empty(self):
        hits = SeedHits.empty(11)
        assert len(thin_seeds(hits)) == 0

    def test_thinning_preserves_run_heads_random(self):
        rng = np.random.default_rng(3)
        q = random_bases(rng, 300)
        s = np.concatenate([q[50:120], random_bases(rng, 100)])
        idx = QueryIndex(q, 8)
        raw = seeds_of(idx, s, thin=False)
        thinned = seeds_of(idx, s, thin=True)
        raw_set = set(zip(raw.q_pos.tolist(), raw.s_pos.tolist()))
        thin_set = set(zip(thinned.q_pos.tolist(), thinned.s_pos.tolist()))
        assert thin_set <= raw_set
        # every kept seed is a run head: its predecessor is absent
        for qp, sp in thin_set:
            assert (qp - 1, sp - 1) not in raw_set


class TestFindSeeds:
    def test_planted_match_found(self):
        rng = np.random.default_rng(1)
        q = random_bases(rng, 500)
        s = np.concatenate([random_bases(rng, 100), q[200:260], random_bases(rng, 100)])
        idx = QueryIndex(q, 11)
        hits = seeds_of(idx, s)
        diags = hits.diagonals
        assert (diags == (100 - 200)).any()

    def test_hit_count_statistics(self):
        """Random 1 kbp vs 1 kbp: expected raw hits ≈ m·n/4^k for k=8."""
        rng = np.random.default_rng(2)
        q = random_bases(rng, 1000)
        s = random_bases(rng, 1000)
        idx = QueryIndex(q, 8)
        raw = seeds_of(idx, s, thin=False)
        expected = 1000 * 1000 / 4**8
        assert 0 <= len(raw) < 12 * expected + 20
