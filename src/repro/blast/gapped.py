"""Gapped x-drop extension (BLAST phase iii): banded affine DP + traceback.

The extension is anchored at a position pair inside an ungapped HSP and grows
in both directions. Each half is a dynamic program over rows (query) ×
columns (subject) where only the *band* of columns scoring within ``x_drop``
of the best score stays alive — exactly the pruning the paper describes.

Each half runs on the batched kernel in :mod:`repro.blast.wavefront`:
substitution scores are materialized in block wavefront tiles, the band
advances through preallocated buffers with a handful of ``out=`` NumPy calls
per row, and traceback runs over a dense band plane in vectorized runs. The
within-row horizontal affine dependency uses a telescoped identity — a gap
opened from a cell that itself ends in a horizontal gap is dominated by one
longer gap (one ``gap_open`` instead of two), so

    E[j] = max_{k<j} (base[k] − gap_open − gap_extend·(j−k))
         = cummax(base + gap_extend·k) − gap_open − gap_extend·j

with ``base = max(diagonal term, vertical term)``, making a row two
``np.maximum.accumulate``-class passes. The one-row-per-iteration reference
DP lives in the test suite as an oracle (``tests/conftest.py``); the
differential suite proves the kernel byte-identical to it.

Speculative mode (paper Section III-B1): Orion extends boundary partials with
the *absolute* drop rule — scoring starts at 0 and extension continues until
the score falls below ``−x_drop`` — instead of the usual peak-relative rule.
Pass ``absolute_drop=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.blast.wavefront import wavefront_half_extension


@dataclass(frozen=True)
class GappedExtension:
    """Result of one gapped extension around an anchor.

    Coordinates are in the same frame as the input sequences; the path (when
    kept) runs from ``(q_start, s_start)`` to ``(q_end, s_end)``.
    """

    score: int
    q_start: int
    q_end: int
    s_start: int
    s_end: int
    path: Optional[np.ndarray] = None

    @property
    def q_span(self) -> int:
        return self.q_end - self.q_start

    @property
    def s_span(self) -> int:
        return self.s_end - self.s_start


def _validate_affine(gap_open: int, gap_extend: int, x_drop: int) -> None:
    """Reject degenerate affine parameters with a typed error.

    ``gap_extend == 0`` used to reach the DP's ``budget // gap_extend`` and
    die with a ``ZeroDivisionError`` deep inside the DP; negative costs
    would silently *reward* gaps. The DP assumes a strictly positive
    extension cost, so fail fast at the API boundary instead.
    """
    if gap_extend <= 0:
        raise ValueError(f"gap_extend must be positive, got {gap_extend}")
    if gap_open < 0:
        raise ValueError(f"gap_open must be non-negative, got {gap_open}")
    if x_drop < 0:
        raise ValueError(f"x_drop must be non-negative, got {x_drop}")


def extend_gapped(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    anchor_q: int,
    anchor_s: int,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
    absolute_drop: bool = False,
    keep_traceback: bool = True,
) -> GappedExtension:
    """Gapped x-drop extension around the anchor pair (both directions).

    The right half aligns ``q[anchor_q:]`` with ``s[anchor_s:]``; the left
    half aligns the reversed prefixes; results are stitched at the anchor.
    The returned score is the sum of both halves (the anchor itself is a DP
    origin, not an aligned column, so nothing is double-counted).
    """
    if not (0 <= anchor_q <= q_codes.shape[0] and 0 <= anchor_s <= s_codes.shape[0]):
        raise ValueError(
            f"anchor ({anchor_q}, {anchor_s}) outside sequences "
            f"({q_codes.shape[0]}, {s_codes.shape[0]})"
        )
    _validate_affine(gap_open, gap_extend, x_drop)
    # Materialize the reversed prefixes once per extension: a negative-stride
    # view would otherwise force a hidden copy inside every windowing /
    # tile-gather operation of the DP below.
    q_left = np.ascontiguousarray(q_codes[:anchor_q][::-1])
    s_left = np.ascontiguousarray(s_codes[:anchor_s][::-1])
    r_score, r_qi, r_sj, r_path = wavefront_half_extension(
        q_codes[anchor_q:], s_codes[anchor_s:], reward, penalty,
        gap_open, gap_extend, x_drop, absolute_drop, keep_traceback,
    )
    l_score, l_qi, l_sj, l_path = wavefront_half_extension(
        q_left, s_left, reward, penalty,
        gap_open, gap_extend, x_drop, absolute_drop, keep_traceback,
    )
    path = None
    if keep_traceback:
        assert l_path is not None and r_path is not None
        path = np.concatenate([l_path[::-1], r_path])
    return GappedExtension(
        score=l_score + r_score,
        q_start=anchor_q - l_qi,
        q_end=anchor_q + r_qi,
        s_start=anchor_s - l_sj,
        s_end=anchor_s + r_sj,
        path=path,
    )
