"""Smith–Waterman local alignment score (the paper's Section II-A baseline).

O(m·n) affine-gap local alignment, used as the exactness oracle for the
heuristic engine: BLAST can only miss or under-extend relative to this DP
(the paper's footnote 3). Rows are vectorized with the same telescoped
horizontal-gap scan as :mod:`repro.blast.gapped`, with the local-alignment
zero floor folded into the base term.
"""

from __future__ import annotations

import numpy as np

NEG_INF = np.int64(-(2**40))


def smith_waterman_score(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    reward: int = 1,
    penalty: int = -3,
    gap_open: int = 5,
    gap_extend: int = 2,
) -> int:
    """Best local alignment score (O(n) memory: one DP row at a time)."""
    m = int(q_codes.shape[0])
    n = int(s_codes.shape[0])
    js = np.arange(n + 1, dtype=np.int64)
    h_prev = np.zeros(n + 1, dtype=np.int64)
    f_prev = np.full(n + 1, NEG_INF, dtype=np.int64)
    best = 0
    for i in range(1, m + 1):
        qc = q_codes[i - 1]
        sub = np.full(n + 1, NEG_INF, dtype=np.int64)
        is_match = (s_codes == qc) & (qc < 4) & (s_codes < 4)
        sub[1:] = np.where(is_match, np.int64(reward), np.int64(penalty))
        diag = np.empty(n + 1, dtype=np.int64)
        diag[0] = NEG_INF
        diag[1:] = h_prev[:-1] + sub[1:]
        f_cur = np.maximum(f_prev - gap_extend, h_prev - gap_open - gap_extend)
        base = np.maximum(np.maximum(diag, f_cur), 0)
        a = base + gap_extend * js
        cummax_a = np.maximum.accumulate(a)
        e_cur = np.full(n + 1, NEG_INF, dtype=np.int64)
        e_cur[1:] = cummax_a[:-1] - gap_open - gap_extend * js[1:]
        h_cur = np.maximum(base, e_cur)
        best = max(best, int(h_cur.max()))
        h_prev, f_prev = h_cur, f_cur
    return best
