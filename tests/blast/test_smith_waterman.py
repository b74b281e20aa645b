"""Tests for the Smith–Waterman oracle."""

import numpy as np
import pytest

from repro.blast.smith_waterman import smith_waterman_score
from repro.sequence.alphabet import encode, random_bases
from repro.sequence.records import Database

PARAMS = dict(reward=1, penalty=-3, gap_open=5, gap_extend=2)


def naive_sw(q, s, reward, penalty, gap_open, gap_extend):
    """Scalar reference Smith-Waterman (affine)."""
    m, n = len(q), len(s)
    neg = -(10**9)
    H = np.zeros((m + 1, n + 1), dtype=np.int64)
    E = np.full((m + 1, n + 1), neg, dtype=np.int64)
    F = np.full((m + 1, n + 1), neg, dtype=np.int64)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            sub = reward if (q[i - 1] == s[j - 1] and q[i - 1] < 4) else penalty
            E[i, j] = max(E[i, j - 1] - gap_extend, H[i, j - 1] - gap_open - gap_extend)
            F[i, j] = max(F[i - 1, j] - gap_extend, H[i - 1, j] - gap_open - gap_extend)
            H[i, j] = max(0, H[i - 1, j - 1] + sub, E[i, j], F[i, j])
    return int(H.max())


class TestScore:
    def test_exact_match(self):
        q = encode("ACGTACGT")
        assert smith_waterman_score(q, q, **PARAMS) == 8

    def test_no_similarity(self):
        assert smith_waterman_score(encode("AAAA"), encode("CCCC"), **PARAMS) == 0

    def test_embedded_local_match(self):
        q = encode("TTTT" + "ACGTACGT" + "TTTT")
        s = encode("GGGG" + "ACGTACGT" + "GGGG")
        assert smith_waterman_score(q, s, **PARAMS) == 8

    def test_mismatch_tolerated_when_profitable(self):
        # 9 matches around 1 mismatch: 9 - 3 = 6 > 5 (either side alone)
        q = encode("ACGTAACGTA")
        s = encode("ACGTACCGTA")  # one mismatch at position 5
        assert smith_waterman_score(q, s, **PARAMS) == 6

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        q = random_bases(rng, 35)
        s = random_bases(rng, 40)
        assert smith_waterman_score(q, s, **PARAMS) == naive_sw(q, s, **PARAMS)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_on_homologs(self, seed):
        rng = np.random.default_rng(50 + seed)
        base = random_bases(rng, 50)
        q = base.copy()
        s = base.copy()
        s[5] = (s[5] + 1) % 4
        s = np.concatenate([s[:25], s[27:]])
        assert smith_waterman_score(q, s, **PARAMS) == naive_sw(q, s, **PARAMS)


class TestOracleProperty:
    def test_sw_upper_bounds_engine_alignments(self, engine, small_db, query_with_truth):
        """Smith-Waterman is exact; no engine alignment can beat it."""
        query, truth = query_with_truth
        t = truth[0]
        qs, qe = t.query_interval
        window_q = query.codes[max(0, qs - 50) : qe + 50]
        subject = small_db[t.subject_id].codes
        sw = smith_waterman_score(window_q, subject, **PARAMS)
        res = engine.search(
            type(query)(seq_id="w", codes=window_q),
            Database([small_db[t.subject_id]]),
        )
        best_engine = max((a.score for a in res.alignments), default=0)
        assert best_engine <= sw
        assert best_engine >= 0.9 * sw  # heuristic should be close on clean homology
