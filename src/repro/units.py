"""Work-unit records shared by every runner (serial, mpiBLAST, BLAST+, Orion).

A *work unit* is one engine invocation — a (query-or-fragment, database-shard)
pair. Runners execute units for real and record only what they measured:
wall-clock seconds and the query and subject spans the unit searched.
Simulated seconds are never stored; :class:`repro.cluster.hardware.HardwareModel`
derives them from a record when a replay asks, so one record can be replayed
under any hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class WorkUnit:
    """Identity and extent of one unit of search work."""

    query_id: str
    shard_index: int
    fragment_index: Optional[int] = None  # None for unfragmented runners
    query_span: int = 0  # bases of query (or fragment) searched
    subject_span: int = 0  # bases of the database shard searched

    def __post_init__(self) -> None:
        if self.shard_index < 0:
            raise ValueError(f"shard_index must be >= 0, got {self.shard_index}")
        if self.fragment_index is not None and self.fragment_index < 0:
            raise ValueError(f"fragment_index must be >= 0, got {self.fragment_index}")
        if self.query_span < 0 or self.subject_span < 0:
            raise ValueError(f"spans must be >= 0, got {self.query_span}, {self.subject_span}")

    @property
    def task_id(self) -> str:
        frag = "" if self.fragment_index is None else f"/frag{self.fragment_index:04d}"
        return f"{self.query_id}{frag}/shard{self.shard_index:03d}"


@dataclass(frozen=True)
class WorkUnitRecord:
    """Measured execution record of one work unit.

    ``measured_seconds`` is real wall-clock on the executing machine and
    ``alignments`` counts the unit's reported alignments.
    ``simulator_safe`` is false when the measurement was taken under
    contention (process workers); a
    replay refuses such records (see
    :attr:`repro.mapreduce.types.TaskRecord.simulator_safe`).

    ``attempts``, ``winner`` and ``fallback_reason`` carry the unit's
    fault-tolerance trail from its :class:`~repro.mapreduce.types.TaskRecord`:
    how many attempts the unit consumed, which one's output was committed,
    and, on a whole-job serial fallback, why the job went serial. Runners
    without a retrying executor leave the defaults.
    """

    unit: WorkUnit
    measured_seconds: float
    alignments: int = 0
    simulator_safe: bool = True
    attempts: int = 1
    winner: int = 1
    fallback_reason: str = ""

    def __post_init__(self) -> None:
        if self.measured_seconds < 0:
            raise ValueError(f"negative duration in {self}")
        if self.alignments < 0:
            raise ValueError(f"negative alignment count in {self}")
        if self.attempts < 1 or not 1 <= self.winner <= self.attempts:
            raise ValueError(
                f"need attempts >= 1 and 1 <= winner <= attempts, "
                f"got attempts={self.attempts}, winner={self.winner}"
            )
