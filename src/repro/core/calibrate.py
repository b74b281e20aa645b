"""Fragment-length calibration (paper Section III-D and Fig. 11).

The ideal fragment length balances opposing pressures: longer fragments mean
fewer boundary crossings and less aggregation work, shorter fragments mean
more work units (parallelism) and better cache behaviour. The paper
calibrates *once per database* and reuses the sweet spot. This module sweeps
candidate lengths, replays each measured search on the target cluster, and
returns the sweep. It keeps no state: a caller reuses the sweet spot by
passing ``fragment_length=calib.best_fragment_length`` to later searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.hardware import HardwareModel
from repro.cluster.topology import ClusterSpec
from repro.core.results import replay_orion
from repro.sequence.records import SequenceRecord


@dataclass(frozen=True)
class SweepPoint:
    """One fragment length's outcome in a calibration sweep."""

    fragment_length: int
    num_fragments: int
    num_work_units: int
    makespan_seconds: float
    total_work_seconds: float
    merged_pairs: int


@dataclass
class CalibrationResult:
    """Sweep outcome: every point plus the sweet spot."""

    database_name: str
    query_length: int
    cluster_slots: int
    points: List[SweepPoint]

    @property
    def best(self) -> SweepPoint:
        return min(self.points, key=lambda p: (p.makespan_seconds, p.fragment_length))

    @property
    def best_fragment_length(self) -> int:
        return self.best.fragment_length


def default_sweep_lengths(query_length: int, overlap: int, count: int = 8) -> List[int]:
    """Geometric sweep from ~4·overlap up to the whole query."""
    lo = max(4 * overlap, 1000)
    hi = max(query_length, lo + 1)
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    lengths = sorted({int(round(lo * ratio**i)) for i in range(count)})
    return [l for l in lengths if l > overlap]


def calibrate_fragment_length(
    search,  # OrionSearch; untyped to avoid an import cycle
    query: SequenceRecord,
    cluster: ClusterSpec,
    hardware: HardwareModel,
    fragment_lengths: Optional[Sequence[int]] = None,
) -> CalibrationResult:
    """Sweep fragment lengths for a query on a modelled cluster.

    Each candidate runs a full search (real work, measured durations) that
    is replayed on ``cluster`` under ``hardware``; the sweep curve is the
    paper's Fig. 11.
    """
    overlap, _ = search.overlap_for_query(query)
    if fragment_lengths is None:
        fragment_lengths = default_sweep_lengths(len(query), overlap)
    if not fragment_lengths:
        raise ValueError("no candidate fragment lengths to sweep")
    points: List[SweepPoint] = []
    for frag_len in fragment_lengths:
        result = search.run(query, fragment_length=frag_len)
        points.append(
            SweepPoint(
                fragment_length=frag_len,
                num_fragments=result.num_fragments,
                num_work_units=result.num_work_units,
                makespan_seconds=replay_orion([result], cluster, hardware).makespan,
                total_work_seconds=result.total_measured_seconds(),
                merged_pairs=result.merged_pairs,
            )
        )
    return CalibrationResult(
        database_name=search.database.name,
        query_length=len(query),
        cluster_slots=cluster.total_slots,
        points=points,
    )
