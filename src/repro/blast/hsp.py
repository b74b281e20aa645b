"""Data model for seeds and final alignments.

Coordinates are **0-based half-open** throughout the library (converted to
BLAST's 1-based inclusive convention only at the formatting boundary in
:mod:`repro.blast.formatter`). Query coordinates in engine output are local
to the searched query (Orion's aggregation translates fragment-local
coordinates to global ones).

Alignment paths are stored as ``uint8`` op arrays:
``OP_DIAG`` consumes one base of both sequences (match *or* mismatch),
``OP_QGAP`` consumes a subject base only (gap in the query row),
``OP_SGAP`` consumes a query base only (gap in the subject row).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

OP_DIAG = 0
OP_QGAP = 1  # gap in query (consumes subject base)
OP_SGAP = 2  # gap in subject (consumes query base)

PLUS_STRAND = 1
MINUS_STRAND = -1


@dataclass
class SeedHits:
    """A batch of k-mer seed hits between one query and a set of subjects.

    Struct-of-arrays layout: ``q_pos[i]``/``s_pos[i]`` is the start of the
    i-th exact k-mer match in query/subject coordinates, and ``owner[i]``
    is the ordinal of the subject it lies in (all zeros — one subject —
    when not given). Subject coordinates are local to the owner.
    """

    q_pos: np.ndarray
    s_pos: np.ndarray
    k: int
    owner: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.q_pos = np.asarray(self.q_pos, dtype=np.int64)
        self.s_pos = np.asarray(self.s_pos, dtype=np.int64)
        if self.owner is None:
            self.owner = np.zeros(self.q_pos.shape, dtype=np.int64)
        self.owner = np.asarray(self.owner, dtype=np.int64)
        if (
            self.q_pos.shape != self.s_pos.shape
            or self.q_pos.shape != self.owner.shape
            or self.q_pos.ndim != 1
        ):
            raise ValueError("q_pos, s_pos and owner must be 1-D arrays of equal length")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")

    def __len__(self) -> int:
        return int(self.q_pos.shape[0])

    @property
    def diagonals(self) -> np.ndarray:
        """Diagonal index of each hit (``s_pos − q_pos``) within its owner."""
        return self.s_pos - self.q_pos

    def take(self, mask_or_index: np.ndarray) -> "SeedHits":
        """Subset of hits selected by a boolean mask or index array."""
        return SeedHits(
            self.q_pos[mask_or_index], self.s_pos[mask_or_index], self.k,
            self.owner[mask_or_index],
        )

    @classmethod
    def empty(cls, k: int) -> "SeedHits":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), k)


@dataclass(frozen=True)
class Alignment:
    """One reported (gapped) alignment — the engine's unit of output.

    Attributes
    ----------
    query_id / subject_id:
        Sequence identifiers. For Orion map tasks ``query_id`` names the
        *fragment*; aggregation rewrites it to the original query id.
    q_start, q_end, s_start, s_end:
        Half-open aligned intervals.
    score:
        Raw (integer) alignment score.
    evalue / bits:
        Karlin–Altschul statistics for ``score`` in the search's space.
    matches / mismatches / gap_opens / gap_columns:
        Path composition counts (``gap_columns`` counts every gapped column;
        ``gap_opens`` counts runs).
    strand:
        ``+1`` (plus/plus) or ``−1`` (query reverse-complemented).
    path:
        Optional op array (see module docstring) from (q_start, s_start) to
        (q_end, s_end); required by Orion's aggregation rescoring.
    speculative:
        True when this alignment came from a *speculative* (absolute-drop)
        gapped extension at a fragment boundary; such paths may overshoot
        and must be re-segmented/trimmed during aggregation.
    """

    query_id: str
    subject_id: str
    q_start: int
    q_end: int
    s_start: int
    s_end: int
    score: int
    evalue: float
    bits: float
    matches: int = 0
    mismatches: int = 0
    gap_opens: int = 0
    gap_columns: int = 0
    strand: int = PLUS_STRAND
    path: Optional[np.ndarray] = None
    speculative: bool = False

    def __post_init__(self) -> None:
        if self.q_start < 0 or self.s_start < 0:
            raise ValueError(f"negative coordinates: {self}")
        if self.q_end < self.q_start or self.s_end < self.s_start:
            raise ValueError(f"inverted interval: {self}")
        if self.strand not in (PLUS_STRAND, MINUS_STRAND):
            raise ValueError(f"strand must be ±1, got {self.strand}")
        if self.path is not None:
            path = np.asarray(self.path, dtype=np.uint8)
            object.__setattr__(self, "path", path)
            q_span = int(np.count_nonzero(path != OP_QGAP))
            s_span = int(np.count_nonzero(path != OP_SGAP))
            if q_span != self.q_end - self.q_start or s_span != self.s_end - self.s_start:
                raise ValueError(
                    f"path consumes ({q_span}, {s_span}) but intervals are "
                    f"({self.q_end - self.q_start}, {self.s_end - self.s_start})"
                )

    @property
    def q_span(self) -> int:
        return self.q_end - self.q_start

    @property
    def s_span(self) -> int:
        return self.s_end - self.s_start

    @property
    def length(self) -> int:
        """Number of alignment columns (path length when available)."""
        if self.path is not None:
            return int(self.path.size)
        return max(self.q_span, self.s_span)

    @property
    def identity(self) -> float:
        """Fraction of matching columns (0 when composition is unknown)."""
        if self.length == 0:
            return 0.0
        return self.matches / self.length

    def shifted(self, q_offset: int = 0, s_offset: int = 0) -> "Alignment":
        """Copy with coordinates translated (fragment-local → query-global)."""
        return replace(
            self,
            q_start=self.q_start + q_offset,
            q_end=self.q_end + q_offset,
            s_start=self.s_start + s_offset,
            s_end=self.s_end + s_offset,
        )

    def sort_key(self) -> Tuple[float, float, str, int, int]:
        """Canonical report order: ascending E-value, then descending score."""
        return (self.evalue, -self.score, self.subject_id, self.q_start, self.s_start)


def path_composition(path: np.ndarray, q_codes: np.ndarray, s_codes: np.ndarray,
                     q_start: int, s_start: int) -> Tuple[int, int, int, int]:
    """Count (matches, mismatches, gap_opens, gap_columns) along a path.

    ``q_codes``/``s_codes`` are the full sequences; the path starts at
    ``(q_start, s_start)``. Vectorized: diagonal columns are compared in one
    shot using the cumulative consumption offsets of the path.
    """
    path = np.asarray(path, dtype=np.uint8)
    if path.size == 0:
        return 0, 0, 0, 0
    q_steps = (path != OP_QGAP).astype(np.int64)
    s_steps = (path != OP_SGAP).astype(np.int64)
    q_off = np.cumsum(q_steps) - q_steps  # query offset *before* each column
    s_off = np.cumsum(s_steps) - s_steps
    diag = path == OP_DIAG
    qi = q_start + q_off[diag]
    si = s_start + s_off[diag]
    eq = q_codes[qi] == s_codes[si]
    matches = int(np.count_nonzero(eq))
    mismatches = int(np.count_nonzero(~eq))
    gap_cols = int(path.size - matches - mismatches)
    is_gap = ~diag
    opens = int(np.count_nonzero(is_gap[1:] & ~is_gap[:-1])) + int(is_gap[0])
    return matches, mismatches, opens, gap_cols
