"""Deterministic discrete-event list scheduler.

Replays task durations onto a modelled cluster: every task goes to the
earliest-free slot in queue order (exactly what Hadoop FIFO and mpiBLAST's
greedy master do), with framework overheads from the
:class:`~repro.cluster.topology.ExecutionProfile`. Phases (map, reduce) are
separated by barriers, as in Hadoop.

Everything is deterministic: ties in slot availability break by slot index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.policies import order_tasks
from repro.cluster.tasks import SimTask
from repro.cluster.topology import ClusterSpec, ExecutionProfile


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task."""

    task: SimTask
    start: float
    end: float
    slot: int
    node: int


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

    def per_slot_busy(self) -> np.ndarray:
        """Busy seconds per slot."""
        busy = np.zeros(self.cluster.total_slots, dtype=np.float64)
        for s in self.scheduled:
            busy[s.slot] += s.end - s.start
        return busy


def simulate_phase(
    tasks: Sequence[SimTask],
    cluster: ClusterSpec,
    profile: Optional[ExecutionProfile] = None,
    policy: str = "fifo",
    start_time: float = 0.0,
) -> Schedule:
    """List-schedule one phase of independent tasks.

    Returns a schedule whose ``end_time`` is the finish of the last task (no
    job setup/teardown — :func:`simulate_phases` adds those around phases).
    """
    profile = profile or ExecutionProfile()
    ordered = order_tasks(tasks, policy)
    # Min-heap of (free_time, slot). Deterministic tie-break on slot index.
    slots: List[Tuple[float, int]] = [(start_time, s) for s in range(cluster.total_slots)]
    heapq.heapify(slots)
    scheduled: List[ScheduledTask] = []
    end_of_phase = start_time
    for task in ordered:
        begin, slot = heapq.heappop(slots)
        end = begin + profile.per_task_overhead_seconds + task.duration
        scheduled.append(
            ScheduledTask(
                task=task, start=begin, end=end, slot=slot,
                node=cluster.node_of_slot(slot),
            )
        )
        heapq.heappush(slots, (end, slot))
        end_of_phase = max(end_of_phase, end)
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
            phase_tasks, cluster, profile, policy=policy, start_time=clock
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
