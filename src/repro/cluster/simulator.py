"""Deterministic discrete-event list scheduler.

Replays task durations onto a modelled cluster: every task goes to the
earliest-free slot in queue order (exactly what Hadoop FIFO and mpiBLAST's
greedy master do), with framework overheads from the
:class:`~repro.cluster.topology.ExecutionProfile`. Phases (map, reduce) are
separated by barriers, as in Hadoop.

Node failures can be injected: a task running on a failed node at the
failure instant is killed and re-executed on a surviving slot, and the
node's slots are removed from service — a speculative-free re-execution
model matching Hadoop 1.x task retry semantics.

Everything is deterministic: ties in slot availability break by slot index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.policies import order_tasks
from repro.cluster.tasks import SimTask
from repro.cluster.topology import ClusterSpec, ExecutionProfile


@dataclass(frozen=True)
class NodeFailure:
    """Node ``node`` permanently fails at simulated time ``time``."""

    node: int
    time: float

    def __post_init__(self) -> None:
        if self.node < 0 or self.time < 0:
            raise ValueError(f"invalid failure spec: {self}")


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task attempt."""

    task: SimTask
    start: float
    end: float
    slot: int
    node: int
    attempt: int = 1
    completed: bool = True


@dataclass
class Schedule:
    """Result of simulating one or more phases on a cluster."""

    cluster: ClusterSpec
    scheduled: List[ScheduledTask]
    start_time: float
    end_time: float
    phase_ends: List[float] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Total simulated time including setup/teardown."""
        return self.end_time - self.start_time

    def completed_tasks(self) -> List[ScheduledTask]:
        return [s for s in self.scheduled if s.completed]

    def per_slot_busy(self) -> np.ndarray:
        """Busy seconds per slot (includes failed attempts: the slot worked)."""
        busy = np.zeros(self.cluster.total_slots, dtype=np.float64)
        for s in self.scheduled:
            busy[s.slot] += s.end - s.start
        return busy

    def per_node_busy(self) -> np.ndarray:
        busy = self.per_slot_busy()
        return busy.reshape(self.cluster.nodes, self.cluster.cores_per_node).sum(axis=1)


def simulate_phase(
    tasks: Sequence[SimTask],
    cluster: ClusterSpec,
    profile: Optional[ExecutionProfile] = None,
    policy: str = "fifo",
    start_time: float = 0.0,
    failures: Sequence[NodeFailure] = (),
) -> Schedule:
    """List-schedule one phase of independent tasks.

    Returns a schedule whose ``end_time`` is the finish of the last task (no
    job setup/teardown — :func:`simulate_phases` adds those around phases).
    """
    profile = profile or ExecutionProfile()
    ordered = order_tasks(tasks, policy)
    failures = sorted(failures, key=lambda f: f.time)
    for f in failures:
        if f.node >= cluster.nodes:
            raise ValueError(f"failure names node {f.node} outside cluster of {cluster.nodes}")
    fail_time: Dict[int, float] = {}
    for f in failures:
        fail_time.setdefault(f.node, f.time)

    # Min-heap of (free_time, slot). Deterministic tie-break on slot index.
    slots: List[Tuple[float, int]] = [(start_time, s) for s in range(cluster.total_slots)]
    heapq.heapify(slots)
    scheduled: List[ScheduledTask] = []
    end_of_phase = start_time

    queue: List[Tuple[SimTask, int]] = [(t, 1) for t in ordered]
    qi = 0
    while qi < len(queue):
        task, attempt = queue[qi]
        placed = False
        skipped: List[Tuple[float, int]] = []
        while slots:
            free, slot = heapq.heappop(slots)
            node = cluster.node_of_slot(slot)
            t_fail = fail_time.get(node)
            begin = max(free, start_time)
            if t_fail is not None and begin >= t_fail:
                continue  # slot's node already dead: drop it permanently
            end = begin + profile.per_task_overhead_seconds + task.duration
            if t_fail is not None and end > t_fail:
                # Task would be killed mid-flight: record the failed attempt,
                # retire the slot, and requeue the task.
                scheduled.append(
                    ScheduledTask(
                        task=task, start=begin, end=t_fail, slot=slot,
                        node=node, attempt=attempt, completed=False,
                    )
                )
                queue.append((task, attempt + 1))
                placed = True
                break
            scheduled.append(
                ScheduledTask(
                    task=task, start=begin, end=end, slot=slot,
                    node=node, attempt=attempt, completed=True,
                )
            )
            heapq.heappush(slots, (end, slot))
            end_of_phase = max(end_of_phase, end)
            placed = True
            break
        for item in skipped:  # pragma: no cover - no skip path currently
            heapq.heappush(slots, item)
        if not placed:
            raise RuntimeError(
                f"no surviving slots to run task {task.task_id!r} "
                f"(all {cluster.nodes} nodes failed?)"
            )
        qi += 1
    return Schedule(
        cluster=cluster,
        scheduled=scheduled,
        start_time=start_time,
        end_time=end_of_phase,
        phase_ends=[end_of_phase],
    )


def simulate_phases(
    phases: Sequence[Sequence[SimTask]],
    cluster: ClusterSpec,
    profile: Optional[ExecutionProfile] = None,
    policy: str = "fifo",
    failures: Sequence[NodeFailure] = (),
) -> Schedule:
    """Simulate barrier-separated phases with job setup/teardown.

    Models a Hadoop job: setup → map phase → barrier → reduce phase →
    teardown. Empty phases are skipped; a job with no tasks still pays the
    setup/teardown constants (the Fig. 10 "small constant overhead").
    """
    profile = profile or ExecutionProfile()
    clock = profile.job_setup_seconds
    all_scheduled: List[ScheduledTask] = []
    phase_ends: List[float] = []
    for phase_tasks in phases:
        if not phase_tasks:
            phase_ends.append(clock)
            continue
        sched = simulate_phase(
            phase_tasks, cluster, profile, policy=policy,
            start_time=clock, failures=failures,
        )
        all_scheduled.extend(sched.scheduled)
        clock = sched.end_time
        phase_ends.append(clock)
    return Schedule(
        cluster=cluster,
        scheduled=all_scheduled,
        start_time=0.0,
        end_time=clock + profile.job_teardown_seconds,
        phase_ends=phase_ends,
    )
