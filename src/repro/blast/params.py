"""BLAST parameters (paper Table I) and per-search options.

Defaults follow the paper's Table I and classic ``blastall -p blastn``:
word size ``k=11``, x-drop 20 (ungapped) / 15 (gapped), E-value cutoff 10,
match reward +1, mismatch −3, affine gaps 5 + 2·len. The ungapped
significance threshold ``t_u`` has *no* fixed default — as Table I notes it
depends on query and database length, so the engine derives it from the
Karlin–Altschul statistics at search time (see
:func:`repro.blast.statistics.minimum_significant_score`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.util.validation import check_positive


@dataclass(frozen=True)
class BlastParams:
    """Algorithm parameters shared by every runner in this reproduction.

    Attributes
    ----------
    k:
        Seed word size (length of initial k-mer matches).
    reward / penalty:
        Match reward (positive) and mismatch penalty (negative).
    gap_open / gap_extend:
        Affine gap costs (both positive; a gap of length g costs
        ``gap_open + g * gap_extend``).
    x_drop_ungapped / x_drop_gapped:
        Termination thresholds for the two extension phases.
    evalue_threshold:
        Final reporting threshold ``E`` (Table I default 10); finite and
        positive.
    ungapped_threshold:
        Explicit ``t_u`` override; ``None`` (the default) means "derive from
        the search space", matching Table I's "N/A".
    two_hit_window:
        Enable NCBI's two-hit seeding with this diagonal window (classic
        protein-BLAST value: 40). ``None`` (default) keeps blastn's one-hit
        seeding — slightly slower, maximally sensitive.
    dust:
        Mask low-complexity query regions (DUST-like) before seeding.
        Disabled by default; see :mod:`repro.blast.dust`.
    """

    k: int = 11
    reward: int = 1
    penalty: int = -3
    gap_open: int = 5
    gap_extend: int = 2
    x_drop_ungapped: int = 20
    x_drop_gapped: int = 15
    evalue_threshold: float = 10.0
    ungapped_threshold: Optional[int] = None
    two_hit_window: Optional[int] = None
    dust: bool = False

    def __post_init__(self) -> None:
        check_positive("k", self.k)
        if self.k > 31:
            raise ValueError(f"k={self.k} exceeds the 62-bit packing limit (31)")
        check_positive("reward", self.reward)
        if self.penalty >= 0:
            raise ValueError(f"penalty must be negative, got {self.penalty}")
        check_positive("gap_open", self.gap_open)
        check_positive("gap_extend", self.gap_extend)
        check_positive("x_drop_ungapped", self.x_drop_ungapped)
        check_positive("x_drop_gapped", self.x_drop_gapped)
        check_positive("evalue_threshold", self.evalue_threshold)
        if not math.isfinite(self.evalue_threshold):
            raise ValueError(
                f"evalue_threshold must be finite, got {self.evalue_threshold!r}"
            )
        if self.ungapped_threshold is not None:
            check_positive("ungapped_threshold", self.ungapped_threshold)
        if self.two_hit_window is not None:
            check_positive("two_hit_window", self.two_hit_window)
        # The Karlin–Altschul model requires negative expected score per
        # aligned pair; for uniform bases that is reward/4 + 3*|penalty|/4... <0.
        if self.reward + 3 * self.penalty >= 0:
            raise ValueError(
                "expected per-base score must be negative "
                f"(reward={self.reward}, penalty={self.penalty})"
            )

    def with_overrides(self, **kwargs) -> "BlastParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def megablast(cls) -> "BlastParams":
        """Megablast-style: long seeds, gentler mismatch, cheaper gaps.

        For highly similar sequences (same-species mapping): k=28 seeds
        nearly eliminate random hits; +1/−2 with small affine costs mirrors
        megablast's default non-affine greedy costs as closely as this
        engine's affine model allows.
        """
        return cls(k=28, reward=1, penalty=-2, gap_open=2, gap_extend=2)


@dataclass(frozen=True)
class SearchOptions:
    """Per-search behaviour switches (mostly consumed by Orion's map tasks).

    Attributes
    ----------
    boundary_left / boundary_right:
        True when the corresponding query edge is an *interior* fragment
        boundary (Orion). Alignments touching such an edge are flagged
        partial; sub-threshold HSPs near it trigger speculative extension.
    boundary_margin:
        How close (bp) an HSP end must come to an interior edge to count as
        "touching" it. Orion sets this to the fragment overlap length.
    speculative:
        Enable the paper's speculative gapped extension (Section III-B1).
    keep_traceback:
        Record alignment paths (needed for match/mismatch/gap counts and for
        Orion's aggregation rescoring).
    max_hsps_per_subject:
        Safety valve for pathological repeat-rich subjects; ``None`` = no cap.
    """

    boundary_left: bool = False
    boundary_right: bool = False
    boundary_margin: int = 0
    speculative: bool = False
    keep_traceback: bool = True
    max_hsps_per_subject: Optional[int] = None

    def __post_init__(self) -> None:
        if self.boundary_margin < 0:
            raise ValueError(f"boundary_margin must be >= 0, got {self.boundary_margin}")
        if self.max_hsps_per_subject is not None and self.max_hsps_per_subject <= 0:
            raise ValueError("max_hsps_per_subject must be positive or None")
        if self.speculative and not (self.boundary_left or self.boundary_right):
            raise ValueError("speculative extension requires an interior boundary")
