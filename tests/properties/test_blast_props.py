"""Property-based tests for the BLAST engine's vectorized kernels.

Each vectorized hot path is checked against an independent scalar reference
implementation on random inputs — the guide's "make it work reliably before
optimizing" applied in reverse: prove the optimized code equals the simple
one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.lookup import QueryIndex, kmer_codes
from repro.blast.smith_waterman import smith_waterman_score
from repro.blast.ungapped import _extend_direction
from repro.blast.gapped import extend_gapped
from repro.sequence.alphabet import encode
from tests.conftest import extend_gapped_rowloop, lookup, score_path

dna = st.text(alphabet="ACGT", min_size=0, max_size=120)
short_dna = st.text(alphabet="ACGT", min_size=1, max_size=40)
seeds = st.integers(min_value=0, max_value=2**31)


class TestLookupProperties:
    @given(dna, dna, st.integers(min_value=2, max_value=8))
    @settings(max_examples=60)
    def test_lookup_equals_brute_force(self, q, s, k):
        idx = QueryIndex(encode(q), k)
        qp, sp = lookup(idx, encode(s))
        got = sorted(zip(qp.tolist(), sp.tolist()))
        expected = [
            (i, j)
            for i in range(len(q) - k + 1)
            for j in range(len(s) - k + 1)
            if q[i : i + k] == s[j : j + k]
        ]
        assert got == sorted(expected)

    @given(dna, st.integers(min_value=2, max_value=8))
    def test_packing_injective_on_windows(self, s, k):
        """Equal packed codes <=> equal windows."""
        packed, valid = kmer_codes(encode(s), k)
        windows = [s[i : i + k] for i in range(max(0, len(s) - k + 1))]
        for i in range(len(windows)):
            for j in range(i + 1, len(windows)):
                if valid[i] and valid[j]:
                    assert (packed[i] == packed[j]) == (windows[i] == windows[j])


def scalar_extend(q, s, q0, s0, direction, reward, penalty, x_drop):
    best, best_len, cum, t = 0, 0, 0, 0
    while True:
        qi, si = q0 + direction * t, s0 + direction * t
        if not (0 <= qi < len(q) and 0 <= si < len(s)):
            break
        cum += reward if q[qi] == s[si] else penalty
        if cum > best:
            best, best_len = cum, t + 1
        if best - cum > x_drop:
            break
        t += 1
    return best, best_len


class TestUngappedProperties:
    @given(short_dna, short_dna, seeds, st.sampled_from([1, -1]))
    @settings(max_examples=80)
    def test_batch_extension_equals_scalar(self, q, s, seed, direction):
        rng = np.random.default_rng(seed)
        qc, sc = encode(q), encode(s)
        n_anchors = 8
        aq = rng.integers(0, len(q), size=n_anchors)
        as_ = rng.integers(0, len(s), size=n_anchors)
        scores, lengths = _extend_direction(qc, sc, aq, as_, direction, 1, -3, 10)
        for i in range(n_anchors):
            ref = scalar_extend(qc, sc, int(aq[i]), int(as_[i]), direction, 1, -3, 10)
            assert (int(scores[i]), int(lengths[i])) == ref


class TestGappedProperties:
    @given(
        short_dna,
        short_dna,
        seeds,
        st.booleans(),
        st.sampled_from([extend_gapped, extend_gapped_rowloop]),
    )
    @settings(max_examples=60)
    def test_traceback_score_consistency(self, q, s, seed, absolute_drop, extend):
        """A returned path always rescores to GappedExtension.score.

        This is the guardrail that catches any drift in the batched
        traceback: it holds for both drop rules, across random anchors, and
        for the production kernel and the row-loop oracle alike.
        """
        rng = np.random.default_rng(seed)
        qc, sc = encode(q), encode(s)
        aq = int(rng.integers(0, len(q) + 1))
        as_ = int(rng.integers(0, len(s) + 1))
        ext = extend(
            qc, sc, aq, as_, 1, -3, 5, 2, x_drop=12, absolute_drop=absolute_drop,
        )
        assert ext.path is not None
        assert score_path(ext.path, qc, sc, ext.q_start, ext.s_start, 1, -3, 5, 2) == ext.score

    @given(short_dna, short_dna)
    @settings(max_examples=40)
    def test_extension_bounded_by_smith_waterman(self, q, s):
        """A gapped extension is a constrained local alignment: SW ≥ it."""
        qc, sc = encode(q), encode(s)
        ext = extend_gapped(qc, sc, 0, 0, 1, -3, 5, 2, x_drop=10_000, keep_traceback=False)
        assert ext.score <= smith_waterman_score(qc, sc, 1, -3, 5, 2)


def naive_sw_scalar(q, s, reward, penalty, gap_open, gap_extend):
    m, n = len(q), len(s)
    neg = -(10**9)
    H = [[0] * (n + 1) for _ in range(m + 1)]
    E = [[neg] * (n + 1) for _ in range(m + 1)]
    F = [[neg] * (n + 1) for _ in range(m + 1)]
    best = 0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            sub = reward if q[i - 1] == s[j - 1] else penalty
            E[i][j] = max(E[i][j - 1] - gap_extend, H[i][j - 1] - gap_open - gap_extend)
            F[i][j] = max(F[i - 1][j] - gap_extend, H[i - 1][j] - gap_open - gap_extend)
            H[i][j] = max(0, H[i - 1][j - 1] + sub, E[i][j], F[i][j])
            best = max(best, H[i][j])
    return best


class TestSmithWatermanProperties:
    @given(short_dna, short_dna)
    @settings(max_examples=40)
    def test_vectorized_equals_scalar(self, q, s):
        qc, sc = encode(q), encode(s)
        assert smith_waterman_score(qc, sc, 1, -3, 5, 2) == naive_sw_scalar(
            qc, sc, 1, -3, 5, 2
        )

    @given(short_dna)
    def test_self_alignment_is_length(self, q):
        qc = encode(q)
        assert smith_waterman_score(qc, qc, 1, -3, 5, 2) == len(q)

    @given(short_dna, short_dna)
    @settings(max_examples=30)
    def test_symmetry(self, q, s):
        qc, sc = encode(q), encode(s)
        assert smith_waterman_score(qc, sc, 1, -3, 5, 2) == smith_waterman_score(
            sc, qc, 1, -3, 5, 2
        )
