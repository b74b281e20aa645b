"""Simulation task types and conversion from measured work-unit records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster.hardware import HardwareModel
from repro.mapreduce.types import TaskKind
from repro.units import WorkUnitRecord


@dataclass(frozen=True)
class SimTask:
    """One schedulable unit of simulated work.

    ``duration`` is simulated seconds: a measured duration, usually mapped
    through a :class:`~repro.cluster.hardware.HardwareModel` first.
    """

    task_id: str
    duration: float
    kind: TaskKind = TaskKind.MAP

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if not self.task_id:
            raise ValueError("task_id must be non-empty")


def simulated_seconds(
    records: Sequence[WorkUnitRecord], hardware: HardwareModel
) -> List[float]:
    """Each record's simulated duration under ``hardware``.

    Every replay goes through here, so it is where measurement discipline is
    enforced: a record taken under contention (process workers) raises
    :class:`ValueError` instead of entering simulated time.
    """
    durations: List[float] = []
    for rec in records:
        if not rec.simulator_safe:
            raise ValueError(
                f"{rec.unit.task_id} was measured under contention; replay only "
                f"serial measurements (executor='serial')"
            )
        unit = rec.unit
        durations.append(
            hardware.seconds(rec.measured_seconds, unit.query_span, unit.subject_span)
        )
    return durations


def unit_tasks(
    records: Sequence[WorkUnitRecord], hardware: HardwareModel
) -> List[SimTask]:
    """One map-phase :class:`SimTask` per record, in record order."""
    return [
        SimTask(task_id=rec.unit.task_id, duration=d)
        for rec, d in zip(records, simulated_seconds(records, hardware))
    ]
