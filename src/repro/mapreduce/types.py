"""Core MapReduce value types shared by the job runner and executors."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple


class TaskKind(enum.Enum):
    """Which phase a task belongs to."""

    MAP = "map"
    REDUCE = "reduce"


@dataclass(frozen=True)
class InputSplit:
    """One unit of map input (Hadoop's InputSplit).

    ``payload`` is arbitrary — for Orion it is a (fragment, shard) work
    descriptor. ``size_hint`` feeds storage/locality modelling.
    ``partitions`` declares the reduce partitions this split's map output
    may reach; ``None`` means any. A reducer waits only for the splits
    that declare its partition (DESIGN.md §4.5), and a map task whose
    output strays outside its declaration fails with
    :class:`~repro.mapreduce.job.UndeclaredPartitionError`.
    """

    index: int
    payload: Any
    size_hint: int = 0
    partitions: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"split index must be non-negative, got {self.index}")
        if self.size_hint < 0:
            raise ValueError(f"size_hint must be non-negative, got {self.size_hint}")
        if self.partitions is not None and any(p < 0 for p in self.partitions):
            raise ValueError(f"partitions must be non-negative, got {self.partitions}")


@dataclass(frozen=True)
class TaskRecord:
    """Measured execution record of one task.

    ``duration`` is real measured seconds on the executing machine; the
    cluster simulator replays these records onto a modelled cluster, so this
    type is the contract between :mod:`repro.mapreduce` and
    :mod:`repro.cluster`.

    ``executor`` names the backend that produced the measurement and
    ``contended`` flags durations taken while other tasks shared the same
    interpreter (thread pools under the GIL). Only serial, uncontended
    measurements are valid simulator inputs — see :attr:`simulator_safe`.

    ``shuffle_bytes_out`` (map tasks) and ``shuffle_bytes_in`` (reduce
    tasks) count the pickled intermediate bytes this task pushed into /
    pulled out of the shuffle. The worker pool's streaming shuffle
    populates them so benchmarks can report moved bytes alongside wall
    time; the serial and threaded executors leave them 0 (their shuffle
    happens driver-side, outside any task).

    ``attempts`` / ``winner`` / ``speculative`` are the fault-tolerance
    trail stamped by the task scheduler: how many attempts the task
    consumed, which attempt's output was committed (first commit wins),
    and whether a speculative duplicate was launched. ``duration`` is the
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
    contended: bool = False
    shuffle_bytes_in: int = 0
    shuffle_bytes_out: int = 0
    attempts: int = 1
    winner: int = 1
    speculative: bool = False
    fallback_reason: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.shuffle_bytes_in < 0 or self.shuffle_bytes_out < 0:
            raise ValueError("shuffle byte counts must be non-negative")
        if self.attempts < 1 or not 1 <= self.winner <= self.attempts:
            raise ValueError(
                f"need attempts >= 1 and 1 <= winner <= attempts, "
                f"got attempts={self.attempts}, winner={self.winner}"
            )

    @property
    def simulator_safe(self) -> bool:
        """Whether this duration may be replayed as a serial measurement.

        True for serial measurements and for thread-pool measurements whose
        phase had only one task in flight (``contended=False``): a pool
        that degenerates to one task at a time executes in-process with no
        GIL interference, so its wall-clock is a serial measurement.
        Process-backed records stay excluded — their durations are real but
        taken under whole-machine load the simulator does not model.
        """
        return not self.contended and self.executor in ("serial", "threads")


@dataclass
class JobResult:
    """Output of one MapReduce job execution.

    Attributes
    ----------
    outputs:
        Per-reducer output lists, indexed by partition.
    records:
        One :class:`TaskRecord` per executed map/reduce task.
    shuffle_keys:
        Distinct keys seen in the shuffle (diagnostics / tests).
    """

    outputs: List[List[Any]]
    records: List[TaskRecord]
    shuffle_keys: int = 0

    def flat_outputs(self) -> List[Any]:
        """All reducer outputs concatenated in partition order."""
        return [item for part in self.outputs for item in part]

    def map_records(self) -> List[TaskRecord]:
        return [r for r in self.records if r.kind is TaskKind.MAP]

    def reduce_records(self) -> List[TaskRecord]:
        return [r for r in self.records if r.kind is TaskKind.REDUCE]
