"""mpiBLAST's master: greedy assignment of work units to idle workers.

The master keeps a queue of unprocessed (query-segment, shard) work units
and hands the next one to whichever worker reports idle first — static in
the sense the paper criticises: the unit *sizes* are fixed up front (whole
queries), so one enormous query-vs-shard unit can hold the whole job hostage
no matter how cleverly units are dealt out.

This module computes the assignment deterministically given per-unit
simulated durations (what the discrete-event simulator does), and additionally tracks
shard→worker affinity: a worker that has already loaded a shard prefers more
units on that shard, modelling mpiBLAST's attempt to avoid re-reading shards
from shared storage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.units import WorkUnitRecord


@dataclass(frozen=True)
class WorkAssignment:
    """One work unit placed on one worker."""

    record: WorkUnitRecord
    worker: int
    start: float
    end: float
    shard_load_seconds: float = 0.0


@dataclass
class MasterScheduler:
    """Greedy master–worker scheduling with shard affinity.

    Parameters
    ----------
    num_workers:
        Worker process count (cores in the paper's runs; rank 0 is the
        master and is excluded by the caller if desired).
    shard_load_seconds:
        Cost a worker pays the first time it touches a shard (copy from
        shared storage). Subsequent units on the same shard are free.
    """

    num_workers: int
    shard_load_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {self.num_workers}")
        if self.shard_load_seconds < 0:
            raise ValueError("shard_load_seconds must be non-negative")

    def schedule(
        self, records: Sequence[WorkUnitRecord], durations: Sequence[float]
    ) -> List[WorkAssignment]:
        """Assign all units; returns assignments in completion order.

        ``durations[i]`` is the simulated duration of ``records[i]``.
        Deterministic: ties in worker availability break by worker index;
        among pending units a worker prefers the first whose shard it has
        already loaded, else the first pending unit (FIFO).
        """
        if len(durations) != len(records):
            raise ValueError(
                f"{len(records)} records but {len(durations)} durations"
            )
        pending: List[Tuple[WorkUnitRecord, float]] = list(zip(records, durations))
        loaded: Dict[int, Set[int]] = {w: set() for w in range(self.num_workers)}
        heap: List[Tuple[float, int]] = [(0.0, w) for w in range(self.num_workers)]
        heapq.heapify(heap)
        out: List[WorkAssignment] = []
        while pending:
            free_at, worker = heapq.heappop(heap)
            pick_idx = 0
            for i, (rec, _) in enumerate(pending):
                if rec.unit.shard_index in loaded[worker]:
                    pick_idx = i
                    break
            rec, duration = pending.pop(pick_idx)
            load = 0.0
            if rec.unit.shard_index not in loaded[worker]:
                load = self.shard_load_seconds
                loaded[worker].add(rec.unit.shard_index)
            end = free_at + load + duration
            out.append(
                WorkAssignment(
                    record=rec, worker=worker, start=free_at, end=end,
                    shard_load_seconds=load,
                )
            )
            heapq.heappush(heap, (end, worker))
        out.sort(key=lambda a: (a.end, a.worker))
        return out


def makespan(assignments: Sequence[WorkAssignment]) -> float:
    """Completion time of the last work unit."""
    if not assignments:
        return 0.0
    return max(a.end for a in assignments)


def per_worker_busy(assignments: Sequence[WorkAssignment], num_workers: int) -> List[float]:
    """Busy seconds per worker (compute + shard loads)."""
    busy = [0.0] * num_workers
    for a in assignments:
        busy[a.worker] += a.end - a.start
    return busy
