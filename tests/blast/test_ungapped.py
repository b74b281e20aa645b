"""Tests for batched ungapped x-drop extension against a scalar reference."""

import numpy as np
import pytest

from repro.blast.hsp import SeedHits
from repro.blast.lookup import QueryIndex
from repro.blast.ungapped import (
    UngappedBatch,
    _extend_direction,
    cull_contained,
    extend_seeds_ungapped,
)
from repro.sequence.alphabet import encode, random_bases
from tests.conftest import seeds_of


def scalar_extend(q, s, q0, s0, direction, reward, penalty, x_drop):
    """Reference one-seed, one-direction x-drop extension."""
    best, best_len, cum, t = 0, 0, 0, 0
    qn, sn = len(q), len(s)
    while True:
        qi, si = q0 + direction * t, s0 + direction * t
        if not (0 <= qi < qn and 0 <= si < sn):
            break
        cum += reward if (q[qi] == s[si] and q[qi] < 4) else penalty
        if cum > best:
            best, best_len = cum, t + 1
        if best - cum > x_drop:
            break
        t += 1
    return best, best_len


class TestExtendDirection:
    @pytest.mark.parametrize("direction", [1, -1])
    def test_matches_scalar_reference_random(self, direction):
        rng = np.random.default_rng(11)
        q = random_bases(rng, 400)
        s = np.concatenate([q[:200], random_bases(rng, 200)])  # half homologous
        anchors_q = rng.integers(0, 400, size=64)
        anchors_s = rng.integers(0, 400, size=64)
        scores, lengths = _extend_direction(
            q, s, anchors_q, anchors_s, direction, 1, -3, 20
        )
        for i in range(64):
            ref_s, ref_l = scalar_extend(
                q, s, int(anchors_q[i]), int(anchors_s[i]), direction, 1, -3, 20
            )
            assert scores[i] == ref_s, f"anchor {i}"
            assert lengths[i] == ref_l, f"anchor {i}"

    def test_perfect_match_extends_to_boundary(self):
        q = encode("ACGT" * 10)
        scores, lengths = _extend_direction(
            q, q, np.array([0]), np.array([0]), 1, 1, -3, 20
        )
        assert scores[0] == 40
        assert lengths[0] == 40

    def test_immediate_mismatch_zero(self):
        q = encode("AAAA")
        s = encode("CCCC")
        scores, lengths = _extend_direction(
            q, s, np.array([0]), np.array([0]), 1, 1, -3, 20
        )
        assert scores[0] == 0
        assert lengths[0] == 0

    def test_crosses_window_boundaries(self):
        """Extensions longer than the initial window must still be exact."""
        rng = np.random.default_rng(5)
        q = random_bases(rng, 5000)
        scores, lengths = _extend_direction(
            q, q, np.array([0]), np.array([0]), 1, 1, -3, 20
        )
        assert scores[0] == 5000
        assert lengths[0] == 5000

    @pytest.mark.parametrize("direction", [1, -1])
    def test_stops_exactly_at_per_anchor_bounds(self, direction):
        """Three anchors on one all-matching concatenation, each clamped to
        its own ``[s_lo, s_hi)``: a walk consumes exactly the bases left in
        its slice, never one of its neighbour's."""
        q = np.zeros(200, dtype=np.uint8)
        s = np.zeros(150, dtype=np.uint8)
        s_lo = np.array([0, 40, 90], dtype=np.int64)
        s_hi = np.array([40, 90, 150], dtype=np.int64)
        s0 = np.array([10, 50, 100], dtype=np.int64)
        q0 = np.full(3, 100, dtype=np.int64)
        scores, lengths = _extend_direction(
            q, s, q0, s0, direction, 1, -3, 20, s_lo, s_hi
        )
        want = s_hi - s0 if direction == 1 else s0 - s_lo + 1
        assert lengths.tolist() == want.tolist()
        assert scores.tolist() == want.tolist()
        # The same anchors against each subject alone agree hit for hit.
        for i in range(3):
            alone = s[s_lo[i]:s_hi[i]]
            one = _extend_direction(
                q, alone, q0[i:i + 1], s0[i:i + 1] - s_lo[i], direction, 1, -3, 20
            )
            assert (one[0][0], one[1][0]) == (scores[i], lengths[i])

    def test_empty_anchors(self):
        q = encode("ACGT")
        scores, lengths = _extend_direction(
            q, q, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1, 1, -3, 20
        )
        assert scores.size == 0


class TestExtendSeedsUngapped:
    def test_planted_homology_hsp(self):
        rng = np.random.default_rng(21)
        q = random_bases(rng, 600)
        s = np.concatenate([random_bases(rng, 50), q[100:400], random_bases(rng, 50)])
        idx = QueryIndex(q, 11)
        hits = seeds_of(idx, s)
        batch = extend_seeds_ungapped(q, s, hits, 1, -3, 20)
        assert len(batch) >= 1
        best = int(np.argmax(batch.score))
        assert batch.score[best] == 300  # perfect 300 bp match
        assert batch.q_start[best] == 100
        assert batch.q_end[best] == 400

    def test_chunking_invariant(self):
        """Results must not depend on the batch chunk size."""
        rng = np.random.default_rng(22)
        q = random_bases(rng, 800)
        s = np.concatenate([q[200:500], random_bases(rng, 300)])
        idx = QueryIndex(q, 8)
        hits = seeds_of(idx, s)
        a = extend_seeds_ungapped(q, s, hits, 1, -3, 20, chunk_size=7)
        b = extend_seeds_ungapped(q, s, hits, 1, -3, 20, chunk_size=10_000)
        key = lambda x: sorted(
            zip(x.q_start.tolist(), x.q_end.tolist(), x.s_start.tolist(), x.score.tolist())
        )
        assert key(a) == key(b)

    def test_empty_hits(self):
        q = encode("ACGT")
        batch = extend_seeds_ungapped(q, q, SeedHits.empty(3), 1, -3, 20)
        assert len(batch) == 0

    def test_pooled_owners_extend_within_their_own_subject(self):
        """Two subjects that continue each other's match when concatenated:
        each HSP stops at its owner's edge, exactly as when extended alone."""
        rng = np.random.default_rng(23)
        q = random_bases(rng, 300)
        first = np.concatenate([random_bases(rng, 20), q[100:160]])
        second = np.concatenate([q[160:220], random_bases(rng, 20)])
        hits = SeedHits(
            np.array([140, 160]), np.array([60, 0]), 11, owner=np.array([0, 1])
        )
        batch = extend_seeds_ungapped(
            q, np.concatenate([first, second]), hits, 1, -3, 20,
            s_offsets=np.array([0, 80, 160]),
        )
        assert batch.owner.tolist() == [0, 1]
        assert batch.q_end[0] == 160 and batch.s_end[0] == 80  # first's right edge
        assert batch.q_start[1] == 160 and batch.s_start[1] == 0  # second's left edge
        for o, subject in enumerate((first, second)):
            one = SeedHits(hits.q_pos[o:o + 1], hits.s_pos[o:o + 1], 11)
            alone = extend_seeds_ungapped(q, subject, one, 1, -3, 20)
            got = batch.take(np.array([o]))
            for field in ("q_start", "q_end", "s_start", "s_end", "score"):
                assert getattr(alone, field).tolist() == getattr(got, field).tolist()

    def test_score_includes_seed(self):
        q = encode("ACGTACGTACG")  # 11-mer
        idx = QueryIndex(q, 11)
        hits = seeds_of(idx, q)
        batch = extend_seeds_ungapped(q, q, hits, 1, -3, 20)
        assert batch.score.max() == 11


class TestCullContained:
    def _batch(self, rows):
        arr = np.array(rows, dtype=np.int64)
        return UngappedBatch(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])

    def test_contained_dropped(self):
        # same diagonal (s - q == 10): [5, 30) contains [10, 20)
        batch = self._batch([[5, 30, 15, 40, 25], [10, 20, 20, 30, 10]])
        out = cull_contained(batch)
        assert len(out) == 1
        assert out.q_start[0] == 5

    def test_different_diagonals_kept(self):
        batch = self._batch([[5, 30, 15, 40, 25], [10, 20, 25, 35, 10]])
        assert len(cull_contained(batch)) == 2

    def test_exact_duplicates_collapse(self):
        batch = self._batch([[5, 30, 15, 40, 25], [5, 30, 15, 40, 25]])
        assert len(cull_contained(batch)) == 1

    def test_overlapping_not_contained_kept(self):
        batch = self._batch([[5, 30, 15, 40, 25], [10, 40, 20, 50, 30]])
        assert len(cull_contained(batch)) == 2

    def test_no_culling_across_owners(self):
        """The same intervals in two subjects: one is contained, the other
        an exact copy — neither culls nor dedupes across owners."""
        rows = np.array([[5, 30, 15, 40, 25], [10, 20, 20, 30, 10], [5, 30, 15, 40, 25]])
        batch = UngappedBatch(*rows.T, owner=np.array([0, 1, 1]))
        out = cull_contained(batch)
        assert out.owner.tolist() == [0, 1]
        assert out.q_start.tolist() == [5, 5]
        same = UngappedBatch(*rows[[0, 2]].T, owner=np.array([3, 4]))
        assert cull_contained(same).owner.tolist() == [3, 4]
        # ... and within one owner both rules still apply.
        one = UngappedBatch(*rows.T, owner=np.array([2, 2, 2]))
        assert len(cull_contained(one)) == 1

    def test_empty_and_single(self):
        assert len(cull_contained(UngappedBatch.empty())) == 0
        single = self._batch([[1, 5, 1, 5, 4]])
        assert len(cull_contained(single)) == 1
