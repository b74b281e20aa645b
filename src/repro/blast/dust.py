"""DUST-like low-complexity masking.

Real BLAST runs the DUST filter over nucleotide queries so that
low-complexity runs (poly-A tails, microsatellites, simple repeats) do not
seed floods of biologically meaningless alignments. This is the classic
windowed triplet-statistic approximation:

* slide a 64-base window in half-window steps;
* score the window by its triplet composition,
  ``S = Σ_t c_t(c_t − 1)/2 / (T − 1)`` where ``c_t`` counts each of the 64
  possible triplets among the window's ``T`` triplets — 0 for maximally
  diverse sequence, up to ``T/2`` for a mononucleotide run;
* windows scoring above the threshold are masked.

Masking is *soft*: :func:`mask_low_complexity` returns a copy with masked
positions set to the ``N`` sentinel, which the seeding stage skips while
extensions still run over the original bases — the NCBI soft-mask
behaviour.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.blast.lookup import kmer_codes
from repro.sequence.alphabet import UNKNOWN_CODE

#: Classic DUST parameters.
DEFAULT_WINDOW = 64
DEFAULT_THRESHOLD = 2.0


def dust_score(codes: np.ndarray) -> float:
    """The DUST triplet statistic of one window (higher = lower complexity)."""
    packed, valid = kmer_codes(np.asarray(codes, dtype=np.uint8), 3)
    triplets = packed[valid]
    t = triplets.size
    if t <= 1:
        return 0.0
    counts = np.bincount(triplets, minlength=64)
    return float((counts * (counts - 1) // 2).sum() / (t - 1))


def low_complexity_intervals(
    codes: np.ndarray,
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Tuple[int, int]]:
    """Half-open intervals of low-complexity sequence (merged, sorted)."""
    if window < 8:
        raise ValueError(f"window must be >= 8, got {window}")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.shape[0]
    step = max(1, window // 2)
    raw: List[Tuple[int, int]] = []
    start = 0
    while start < n:
        stop = min(start + window, n)
        if stop - start >= 8 and dust_score(codes[start:stop]) > threshold:
            raw.append((start, stop))
        if stop >= n:
            break
        start += step
    # merge overlapping/adjacent intervals
    merged: List[Tuple[int, int]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def mask_low_complexity(
    codes: np.ndarray,
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Soft-mask low-complexity regions.

    Returns ``(masked_copy, intervals)``: masked positions carry the ``N``
    sentinel so no k-mer seed forms there; the caller keeps using the
    original array for extensions.
    """
    intervals = low_complexity_intervals(codes, window, threshold)
    if not intervals:
        return np.asarray(codes, dtype=np.uint8), []
    masked = np.asarray(codes, dtype=np.uint8).copy()
    for lo, hi in intervals:
        masked[lo:hi] = UNKNOWN_CODE
    return masked, intervals
