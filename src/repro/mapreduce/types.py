"""Core MapReduce value types shared by the job runner and executors."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Tuple


class TaskKind(enum.Enum):
    """Which phase a task belongs to."""

    MAP = "map"
    REDUCE = "reduce"


@dataclass(frozen=True)
class InputSplit:
    """One unit of map input (Hadoop's InputSplit).

    ``payload`` is arbitrary — for Orion it is a (fragment, shard) work
    descriptor.
    """

    index: int
    payload: Any

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"split index must be non-negative, got {self.index}")


@dataclass(frozen=True)
class TaskRecord:
    """Measured execution record of one task.

    ``duration`` is real measured seconds on the executing machine; the
    cluster simulator replays these records onto a modelled cluster, so this
    type is the contract between :mod:`repro.mapreduce` and
    :mod:`repro.cluster`.

    ``executor`` names the backend that produced the measurement. Only
    serial measurements are valid simulator inputs — see
    :attr:`simulator_safe`.

    ``shuffle_bytes_out`` (map tasks) counts the pickled output bytes a
    worker-pool map task returned to the driver's shuffle, so benchmarks
    can report moved bytes alongside wall time; in-process executors leave
    it 0 (their map output never leaves the calling process).

    ``attempts`` / ``winner`` are the fault-tolerance trail stamped by the
    task scheduler: how many attempts the task consumed (failed, lost with
    a crashed pool, or timed out) and which attempt's output was committed
    (first commit wins, so a timed-out straggler can still be the winner).
    ``duration`` is the
    winning attempt's, so a record that retried is still one valid
    measurement of the work. ``fallback_reason`` is non-empty only on
    records produced by a whole-job serial fallback, naming why the job
    went serial (operator forensics; such records are by construction
    ``executor="serial"``).
    """

    task_id: str
    kind: TaskKind
    duration: float
    input_records: int = 0
    output_records: int = 0
    executor: str = "serial"
    shuffle_bytes_out: int = 0
    attempts: int = 1
    winner: int = 1
    fallback_reason: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.shuffle_bytes_out < 0:
            raise ValueError("shuffle byte counts must be non-negative")
        if self.attempts < 1 or not 1 <= self.winner <= self.attempts:
            raise ValueError(
                f"need attempts >= 1 and 1 <= winner <= attempts, "
                f"got attempts={self.attempts}, winner={self.winner}"
            )

    @property
    def simulator_safe(self) -> bool:
        """Whether this duration may be replayed as a serial measurement.

        Process-backed records are excluded: their durations are real but
        taken under whole-machine load the simulator does not model.
        """
        return self.executor == "serial"


@dataclass
class JobResult:
    """Output of one MapReduce job execution.

    Attributes
    ----------
    outputs:
        One ``(key, reducer result)`` pair per distinct shuffle key, in
        sorted key order.
    records:
        One :class:`TaskRecord` per executed task: the map tasks in split
        order, then one reduce record per key, so ``reduce_records()[i]``
        times ``outputs[i]``.
    """

    outputs: List[Tuple[Any, Any]]
    records: List[TaskRecord]

    def map_records(self) -> List[TaskRecord]:
        return [r for r in self.records if r.kind is TaskKind.MAP]

    def reduce_records(self) -> List[TaskRecord]:
        return [r for r in self.records if r.kind is TaskKind.REDUCE]
