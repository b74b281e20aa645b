"""Property-based tests for the cluster simulator and metrics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import coefficient_of_variation, speedup_curve
from repro.cluster.simulator import simulate_phase, simulate_phases
from repro.cluster.tasks import SimTask
from repro.cluster.topology import ClusterSpec

durations = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=60
)
clusters = st.builds(
    ClusterSpec,
    nodes=st.integers(min_value=1, max_value=8),
    cores_per_node=st.integers(min_value=1, max_value=8),
)


def mk_tasks(ds):
    return [SimTask(task_id=f"t{i}", duration=d) for i, d in enumerate(ds)]


class TestSchedulerBounds:
    @given(durations.flatmap(st.permutations), clusters, st.sampled_from(["fifo", "lpt"]))
    @settings(max_examples=120)
    def test_graham_bounds(self, ds, cluster, policy):
        """List scheduling: LB = max(total/m, longest) ≤ makespan ≤
        total/m + longest (Graham's bound for any list order: hypothesis
        draws the submission order, ``fifo`` keeps it)."""
        sched = simulate_phase(mk_tasks(ds), cluster, policy=policy)
        m = cluster.total_slots
        total = sum(ds)
        longest = max(ds)
        lb = max(total / m, longest)
        ub = total / m + longest
        assert sched.end_time >= lb - 1e-9
        assert sched.end_time <= ub + 1e-9

    @given(durations, clusters)
    @settings(max_examples=60)
    def test_work_conservation(self, ds, cluster):
        sched = simulate_phase(mk_tasks(ds), cluster)
        assert sched.per_slot_busy().sum() == np.sum(ds) or abs(
            sched.per_slot_busy().sum() - np.sum(ds)
        ) < 1e-6

    @given(durations, clusters)
    @settings(max_examples=60)
    def test_no_slot_overlap(self, ds, cluster):
        """Tasks on the same slot never overlap in time."""
        sched = simulate_phase(mk_tasks(ds), cluster)
        by_slot = {}
        for s in sched.scheduled:
            by_slot.setdefault(s.slot, []).append((s.start, s.end))
        for intervals in by_slot.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9

    @given(durations)
    @settings(max_examples=40)
    def test_doubling_slots_never_hurts(self, ds):
        a = simulate_phase(mk_tasks(ds), ClusterSpec(nodes=1, cores_per_node=2))
        b = simulate_phase(mk_tasks(ds), ClusterSpec(nodes=1, cores_per_node=4))
        # FIFO list scheduling is not strictly monotone in machine count in
        # theory, but with identical order and greedy earliest-slot placement
        # adding slots can only start tasks earlier or at the same time.
        assert b.end_time <= a.end_time + max(ds) + 1e-9

    @given(durations, clusters)
    @settings(max_examples=40)
    def test_phases_are_ordered(self, ds, cluster):
        half = len(ds) // 2 or 1
        sched = simulate_phases([mk_tasks(ds[:half]), mk_tasks(ds[half:])], cluster)
        assert sched.phase_ends == sorted(sched.phase_ends)
        assert sched.makespan >= sched.phase_ends[-1] - 1e-9


class TestMetricProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=50))
    def test_cv_nonnegative_and_scale_invariant(self, ds):
        cv = coefficient_of_variation(ds)
        assert cv >= 0
        scaled = coefficient_of_variation([d * 7.5 for d in ds])
        assert abs(cv - scaled) < 1e-9

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=10)
    )
    def test_speedup_baseline_one(self, makespans):
        cores = [64 * (i + 1) for i in range(len(makespans))]
        rows = speedup_curve(cores, makespans)
        assert rows[0][1] == 1.0
