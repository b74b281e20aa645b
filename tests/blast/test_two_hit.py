"""Tests for the two-hit seeding heuristic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.engine import BlastEngine
from repro.blast.hsp import SeedHits
from repro.blast.lookup import QueryIndex
from repro.blast.params import BlastParams
from repro.blast.seeds import two_hit_filter
from repro.sequence.alphabet import random_bases
from repro.sequence.records import Database, SequenceRecord
from tests.conftest import seeds_of


def hits_from(pairs, k=11):
    q = np.array([p[0] for p in pairs], dtype=np.int64)
    s = np.array([p[1] for p in pairs], dtype=np.int64)
    return SeedHits(q, s, k)


class TestTwoHitFilter:
    def test_never_pairs_hits_in_different_subjects(self):
        """Same diagonal, 20 apart, but two owners: isolated in each."""
        q = np.array([100, 120, 300, 310], dtype=np.int64)
        s = np.array([500, 520, 50, 60], dtype=np.int64)
        hits = SeedHits(q, s, 11, owner=np.array([0, 1, 1, 1]))
        out = two_hit_filter(hits, 40)
        assert out.owner.tolist() == [1, 1]
        assert out.q_pos.tolist() == [300, 310]
        same = SeedHits(q[:2], s[:2], 11, owner=np.array([4, 4]))
        assert len(two_hit_filter(same, 40)) == 2

    def test_isolated_hit_dropped(self):
        hits = hits_from([(100, 500)])
        assert len(two_hit_filter(hits, 40)) == 0

    def test_pair_on_same_diagonal_kept(self):
        hits = hits_from([(100, 500), (120, 520)])  # same diagonal, 20 apart
        out = two_hit_filter(hits, 40)
        assert len(out) == 2

    def test_pair_beyond_window_dropped(self):
        hits = hits_from([(100, 500), (200, 600)])  # same diagonal, 100 apart
        assert len(two_hit_filter(hits, 40)) == 0

    def test_different_diagonals_not_paired(self):
        hits = hits_from([(100, 500), (120, 525)])  # diagonals 400 vs 405
        assert len(two_hit_filter(hits, 40)) == 0

    def test_chain_of_three_all_kept(self):
        hits = hits_from([(100, 500), (130, 530), (160, 560)])
        assert len(two_hit_filter(hits, 40)) == 3

    def test_mixed(self):
        hits = hits_from([(100, 500), (120, 520), (9000, 20)])
        out = two_hit_filter(hits, 40)
        assert sorted(out.q_pos.tolist()) == [100, 120]

    def test_window_validated(self):
        with pytest.raises(ValueError):
            two_hit_filter(hits_from([(1, 1)]), 0)

    def test_empty(self):
        assert len(two_hit_filter(hits_from([]), 40)) == 0


def _brute_force_two_hit(pairs, window):
    """The documented contract, literally: a hit survives iff another
    *non-identical* hit sits on its diagonal within ``window`` (0 < Δq)."""
    return [
        (q, s)
        for q, s in pairs
        if any(
            s2 - q2 == s - q and 0 < abs(q2 - q) <= window for q2, s2 in pairs
        )
    ]


class TestTwoHitDuplicates:
    """Unthinned hit sets may carry exact duplicates; a zero-distance copy
    is the same hit, never a pairing partner (the Δq = 0 regression)."""

    def test_zero_distance_duplicate_is_not_a_partner(self):
        hits = hits_from([(100, 500), (100, 500)])
        assert len(two_hit_filter(hits, 40)) == 0

    def test_duplicate_does_not_mask_real_partner(self):
        # Sorted by (diagonal, q) the duplicate sits between the hit and
        # its genuine partner; every copy must inherit the real verdict.
        hits = hits_from([(100, 500), (100, 500), (130, 530)])
        out = two_hit_filter(hits, 40)
        assert sorted(out.q_pos.tolist()) == [100, 100, 130]

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 6)).map(
                lambda t: (t[0], t[0] + t[1])
            ),
            max_size=40,
        ),
        window=st.integers(1, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_on_arbitrary_hit_sets(self, pairs, window):
        """Small value pools force heavy duplicate/collision cases."""
        out = two_hit_filter(hits_from(pairs), window)
        kept = sorted(zip(out.q_pos.tolist(), out.s_pos.tolist()))
        assert kept == sorted(_brute_force_two_hit(pairs, window))

    @given(seed=st.integers(0, 31), window=st.integers(5, 60))
    @settings(max_examples=30, deadline=None)
    def test_unthinned_seeds_match_brute_force(self, seed, window):
        """Unthinned ``find_seeds`` hits feeding the filter: the raw lookup
        stream honours the same non-identical pairing contract."""
        rng = np.random.default_rng(seed)
        shared = random_bases(rng, 60)
        q_codes = np.concatenate([random_bases(rng, 300), shared])
        s_codes = np.concatenate([shared, random_bases(rng, 300)])
        hits = seeds_of(QueryIndex(q_codes, 8), s_codes, thin=False)
        pairs = list(zip(hits.q_pos.tolist(), hits.s_pos.tolist()))
        out = two_hit_filter(hits, window)
        kept = sorted(zip(out.q_pos.tolist(), out.s_pos.tolist()))
        assert kept == sorted(_brute_force_two_hit(pairs, window))


class TestTwoHitInEngine:
    def _workload(self):
        rng = np.random.default_rng(5)
        homolog = random_bases(rng, 400)
        query = SequenceRecord(
            seq_id="q",
            codes=np.concatenate([random_bases(rng, 2000), homolog, random_bases(rng, 2000)]),
        )
        subject = SequenceRecord(
            seq_id="s", codes=np.concatenate([random_bases(rng, 500), homolog])
        )
        return query, Database([subject])

    def test_long_homology_survives_two_hit(self):
        query, db = self._workload()
        one_hit = BlastEngine(BlastParams()).search(query, db)
        two_hit = BlastEngine(BlastParams(two_hit_window=40)).search(query, db)
        best_one = max(a.score for a in one_hit.alignments)
        best_two = max(a.score for a in two_hit.alignments)
        assert best_two == best_one  # the real alignment is found either way

    def test_two_hit_is_subset_of_one_hit(self):
        """Two-hit can only drop alignments, never invent them."""
        query, db = self._workload()
        one_hit = BlastEngine(BlastParams()).search(query, db)
        two_hit = BlastEngine(BlastParams(two_hit_window=40)).search(query, db)
        one_keys = {(a.q_start, a.q_end, a.s_start) for a in one_hit.alignments}
        two_keys = {(a.q_start, a.q_end, a.s_start) for a in two_hit.alignments}
        assert two_keys <= one_keys

    def test_two_hit_reduces_extension_work(self):
        """On large random flanks (plenty of isolated chance hits) the
        two-hit filter must strictly cut the extension workload."""
        rng = np.random.default_rng(7)
        homolog = random_bases(rng, 400)
        query = SequenceRecord(
            seq_id="q",
            codes=np.concatenate([random_bases(rng, 30_000), homolog]),
        )
        db = Database(
            [SequenceRecord(seq_id="s", codes=np.concatenate([random_bases(rng, 30_000), homolog]))]
        )
        one_hit = BlastEngine(BlastParams()).search(query, db)
        two_hit = BlastEngine(BlastParams(two_hit_window=40)).search(query, db)
        assert one_hit.counters.ungapped_extensions > 50  # chance hits exist
        assert (
            two_hit.counters.ungapped_extensions
            < one_hit.counters.ungapped_extensions
        )


class TestPresets:
    def test_megablast_longer_seeds(self):
        mb = BlastParams.megablast()
        assert mb.k == 28
        assert mb.penalty == -2

    def test_megablast_engine_works(self):
        rng = np.random.default_rng(6)
        shared = random_bases(rng, 300)
        query = SequenceRecord(seq_id="q", codes=np.concatenate([random_bases(rng, 200), shared]))
        db = Database([SequenceRecord(seq_id="s", codes=shared.copy())])
        res = BlastEngine(BlastParams.megablast()).search(query, db)
        assert res.alignments
        assert res.alignments[0].score >= 290
