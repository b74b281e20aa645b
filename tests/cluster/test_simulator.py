"""Tests for the discrete-event list scheduler."""

import pytest

from repro.cluster.simulator import simulate_phase, simulate_phases
from repro.cluster.tasks import SimTask
from repro.cluster.topology import ClusterSpec, ExecutionProfile


def tasks_of(durations):
    return [SimTask(task_id=f"t{i}", duration=d) for i, d in enumerate(durations)]


class TestSimulatePhase:
    def test_single_slot_serializes(self):
        sched = simulate_phase(tasks_of([1, 2, 3]), ClusterSpec(nodes=1, cores_per_node=1))
        assert sched.end_time == pytest.approx(6.0)

    def test_perfect_parallelism(self):
        sched = simulate_phase(tasks_of([2, 2, 2]), ClusterSpec(nodes=3, cores_per_node=1))
        assert sched.end_time == pytest.approx(2.0)

    def test_lower_bounds(self):
        """Makespan >= max task and >= total work / slots."""
        durations = [5, 1, 1, 1, 9, 2, 2]
        cluster = ClusterSpec(nodes=1, cores_per_node=3)
        sched = simulate_phase(tasks_of(durations), cluster)
        assert sched.end_time >= max(durations)
        assert sched.end_time >= sum(durations) / cluster.total_slots - 1e-9

    def test_fifo_greedy_placement(self):
        # Tasks [4, 1, 1, 1] on 2 slots FIFO: slot0=4, slot1=1+1+1 -> makespan 4
        sched = simulate_phase(tasks_of([4, 1, 1, 1]), ClusterSpec(nodes=2, cores_per_node=1))
        assert sched.end_time == pytest.approx(4.0)

    def test_per_task_overhead_applied(self):
        profile = ExecutionProfile(per_task_overhead_seconds=0.5)
        sched = simulate_phase(
            tasks_of([1, 1]), ClusterSpec(nodes=1, cores_per_node=1), profile
        )
        assert sched.end_time == pytest.approx(3.0)

    def test_deterministic(self):
        cluster = ClusterSpec(nodes=2, cores_per_node=2)
        a = simulate_phase(tasks_of([3, 1, 4, 1, 5]), cluster)
        b = simulate_phase(tasks_of([3, 1, 4, 1, 5]), cluster)
        assert [(s.task.task_id, s.start, s.slot) for s in a.scheduled] == [
            (s.task.task_id, s.start, s.slot) for s in b.scheduled
        ]

    def test_busy_accounting(self):
        cluster = ClusterSpec(nodes=2, cores_per_node=1)
        sched = simulate_phase(tasks_of([2, 3]), cluster)
        assert sched.per_slot_busy().sum() == pytest.approx(5.0)
        assert sched.per_slot_busy().tolist() == [2.0, 3.0]

    def test_start_time_offset(self):
        sched = simulate_phase(
            tasks_of([1]), ClusterSpec(nodes=1, cores_per_node=1), start_time=10.0
        )
        assert sched.scheduled[0].start == 10.0


class TestPolicies:
    def test_lpt_beats_spt_on_adversarial_mix(self):
        """LPT never loses to shortest-first: the same tasks submitted in
        ascending order and scheduled ``fifo``."""
        durations = [8, 1, 1, 1, 1, 1, 1, 1, 8]
        cluster = ClusterSpec(nodes=2, cores_per_node=1)
        lpt = simulate_phase(tasks_of(durations), cluster, policy="lpt")
        spt = simulate_phase(tasks_of(sorted(durations)), cluster, policy="fifo")
        assert lpt.end_time <= spt.end_time

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_phase(tasks_of([1]), ClusterSpec(nodes=1, cores_per_node=1), policy="magic")


class TestSimulatePhases:
    def test_barrier_between_phases(self):
        cluster = ClusterSpec(nodes=2, cores_per_node=1)
        sched = simulate_phases([tasks_of([3, 1]), tasks_of([1])], cluster)
        reduce_start = [s for s in sched.scheduled if s.task.task_id == "t0"][-1]
        phase1_tasks = sched.scheduled[:2]
        assert min(s.start for s in sched.scheduled[2:]) >= max(
            s.end for s in phase1_tasks
        )

    def test_setup_teardown_in_makespan(self):
        profile = ExecutionProfile(job_setup_seconds=5, job_teardown_seconds=2)
        sched = simulate_phases(
            [tasks_of([1])], ClusterSpec(nodes=1, cores_per_node=1), profile
        )
        assert sched.makespan == pytest.approx(8.0)

    def test_empty_job_pays_constants(self):
        profile = ExecutionProfile(job_setup_seconds=5, job_teardown_seconds=2)
        sched = simulate_phases([[]], ClusterSpec(nodes=1, cores_per_node=1), profile)
        assert sched.makespan == pytest.approx(7.0)

    def test_phase_ends_recorded(self):
        sched = simulate_phases(
            [tasks_of([1]), tasks_of([2])], ClusterSpec(nodes=1, cores_per_node=1)
        )
        assert len(sched.phase_ends) == 2
        assert sched.phase_ends[0] <= sched.phase_ends[1]

    def test_more_slots_never_slower(self):
        durations = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        small = simulate_phases([tasks_of(durations)], ClusterSpec(nodes=1, cores_per_node=2))
        big = simulate_phases([tasks_of(durations)], ClusterSpec(nodes=2, cores_per_node=4))
        assert big.makespan <= small.makespan + 1e-9
