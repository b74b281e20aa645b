"""Ungapped x-drop extension (BLAST phase ii), batched across seeds.

The scalar algorithm walks a diagonal accumulating match/mismatch scores,
remembers the running peak, and stops once the score falls ``x_drop`` below
it. That walk is a cumulative sum plus a running maximum — both one-call
NumPy scans — so we extend *thousands of seeds simultaneously* on 2-D windows
instead of looping per seed. Windows start small (most random seeds die
within a few mismatches) and double for the survivors, keeping the work
proportional to actual extension lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.blast.hsp import SeedHits
from repro.sequence.alphabet import ALPHABET_SIZE

#: First extension window; doubles for seeds still alive at the window edge.
INITIAL_WINDOW = 64
#: Per-iteration window cap (bounds the 2-D scratch memory per chunk).
MAX_WINDOW = 16384
#: Seeds processed per batch (rows of the 2-D scratch arrays).
CHUNK_SIZE = 8192


@dataclass
class UngappedBatch:
    """Struct-of-arrays collection of ungapped HSPs."""

    q_start: np.ndarray
    q_end: np.ndarray
    s_start: np.ndarray
    s_end: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        n = self.q_start.shape[0]
        for name in ("q_end", "s_start", "s_end", "score"):
            if getattr(self, name).shape[0] != n:
                raise ValueError("UngappedBatch arrays must have equal length")

    def __len__(self) -> int:
        return int(self.q_start.shape[0])

    @property
    def diagonals(self) -> np.ndarray:
        return self.s_start - self.q_start

    def take(self, mask_or_index: np.ndarray) -> "UngappedBatch":
        return UngappedBatch(
            self.q_start[mask_or_index],
            self.q_end[mask_or_index],
            self.s_start[mask_or_index],
            self.s_end[mask_or_index],
            self.score[mask_or_index],
        )

    @classmethod
    def empty(cls) -> "UngappedBatch":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), z.copy(), z.copy(), z.copy())


def _extend_direction(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    q0: np.ndarray,
    s0: np.ndarray,
    direction: int,
    reward: int,
    penalty: int,
    x_drop: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched one-direction x-drop extension.

    For each anchor i the walk visits ``(q0[i] + direction·t, s0[i] +
    direction·t)`` for t = 0, 1, …; it stops when the running score drops
    ``x_drop`` below its peak or runs off either sequence. Returns
    ``(peak_scores, peak_lengths)`` — the best cumulative score reached
    (≥ 0; zero means "do not extend") and how many bases achieve it.
    """
    n = q0.shape[0]
    peak_score = np.zeros(n, dtype=np.int64)
    peak_len = np.zeros(n, dtype=np.int64)
    if n == 0:
        return peak_score, peak_len

    qn = q_codes.shape[0]
    sn = s_codes.shape[0]
    sentinel = -(x_drop + 1)  # triggers the drop test unconditionally

    active = np.arange(n, dtype=np.int64)
    base_ext = np.zeros(n, dtype=np.int64)  # bases consumed in finished windows
    base_score = np.zeros(n, dtype=np.int64)  # cumulative score at window start
    window = INITIAL_WINDOW

    while active.size:
        offs = np.arange(window, dtype=np.int64)
        t = base_ext[active, None] + offs[None, :]
        qi = q0[active, None] + direction * t
        si = s0[active, None] + direction * t
        valid = (qi >= 0) & (qi < qn) & (si >= 0) & (si < sn)
        qv = q_codes[np.clip(qi, 0, qn - 1)]
        sv = s_codes[np.clip(si, 0, sn - 1)]
        match = (qv == sv) & (qv < ALPHABET_SIZE) & valid
        step = np.where(match, np.int64(reward), np.int64(penalty))
        step[~valid] = sentinel

        cum = np.cumsum(step, axis=1) + base_score[active, None]
        runmax = np.maximum.accumulate(cum, axis=1)
        peaks_so_far = peak_score[active, None]
        best = np.maximum(runmax, peaks_so_far)
        dropped = (best - cum) > x_drop
        has_stop = dropped.any(axis=1)
        stop_idx = np.where(has_stop, np.argmax(dropped, axis=1), window)

        # Peak within this window, considering only t < stop_idx.
        considered = offs[None, :] < stop_idx[:, None]
        masked = np.where(considered, cum, np.int64(np.iinfo(np.int64).min))
        win_peak = masked.max(axis=1)
        win_peak_idx = masked.argmax(axis=1)
        improved = win_peak > peak_score[active]
        imp_rows = active[improved]
        peak_score[imp_rows] = win_peak[improved]
        peak_len[imp_rows] = base_ext[imp_rows] + win_peak_idx[improved] + 1

        alive = ~has_stop
        if alive.any():
            live_rows = active[alive]
            base_ext[live_rows] += window
            base_score[live_rows] = cum[alive, -1]
            active = live_rows
            window = min(window * 2, MAX_WINDOW)
        else:
            active = active[:0]

    return peak_score, peak_len


def extend_seeds_ungapped(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    hits: SeedHits,
    reward: int,
    penalty: int,
    x_drop: int,
    chunk_size: int = CHUNK_SIZE,
) -> UngappedBatch:
    """Extend every seed in both directions and cull contained HSPs.

    The returned batch has one HSP per surviving seed: score =
    ``k·reward + left_peak + right_peak``, interval = seed ± the peak
    extension lengths. HSPs contained within an earlier (same-diagonal,
    larger) HSP are dropped, mirroring the containment-skip optimization the
    paper describes for BLAST phase ii.
    """
    if len(hits) == 0:
        return UngappedBatch.empty()
    k = hits.k

    parts: List[UngappedBatch] = []
    for lo in range(0, len(hits), chunk_size):
        sel = slice(lo, min(lo + chunk_size, len(hits)))
        qp = hits.q_pos[sel]
        sp = hits.s_pos[sel]
        r_score, r_len = _extend_direction(
            q_codes, s_codes, qp + k, sp + k, +1, reward, penalty, x_drop
        )
        l_score, l_len = _extend_direction(
            q_codes, s_codes, qp - 1, sp - 1, -1, reward, penalty, x_drop
        )
        parts.append(
            UngappedBatch(
                q_start=qp - l_len,
                q_end=qp + k + r_len,
                s_start=sp - l_len,
                s_end=sp + k + r_len,
                score=np.int64(k * reward) + l_score + r_score,
            )
        )
    batch = (
        parts[0]
        if len(parts) == 1
        else UngappedBatch(
            np.concatenate([p.q_start for p in parts]),
            np.concatenate([p.q_end for p in parts]),
            np.concatenate([p.s_start for p in parts]),
            np.concatenate([p.s_end for p in parts]),
            np.concatenate([p.score for p in parts]),
        )
    )
    return cull_contained(batch)


def cull_contained(batch: UngappedBatch) -> UngappedBatch:
    """Drop HSPs contained in another same-diagonal HSP; dedupe exact copies.

    Grouped running-maximum trick: sort by (diagonal, q_start, −q_end); within
    a diagonal group an HSP is contained iff its q_end does not exceed the
    running max q_end of its predecessors. Group isolation is achieved by
    offsetting q_end with ``group_id · LARGE`` before the accumulate.
    """
    n = len(batch)
    if n <= 1:
        return batch
    diag = batch.diagonals
    order = np.lexsort((-batch.q_end, batch.q_start, diag))
    d = diag[order]
    qs = batch.q_start[order]
    qe = batch.q_end[order]

    group_head = np.empty(n, dtype=bool)
    group_head[0] = True
    group_head[1:] = d[1:] != d[:-1]
    group_id = np.cumsum(group_head) - 1

    big = np.int64(batch.q_end.max() + 1)
    adj = qe + group_id * big
    runmax = np.maximum.accumulate(adj)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = adj[1:] > runmax[:-1]
    keep |= group_head  # heads always survive

    # Exact duplicates (same diag, same interval) collapse to one.
    dup = np.zeros(n, dtype=bool)
    dup[1:] = (d[1:] == d[:-1]) & (qs[1:] == qs[:-1]) & (qe[1:] == qe[:-1])
    keep &= ~dup
    return batch.take(np.sort(order[keep]))
