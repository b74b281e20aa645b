"""Fault-tolerance tests: injector, retry policy, scheduler, fault matrix.

The matrix at the bottom is the load-bearing part: every fault kind is
injected into the map phase (the only phase the worker pool runs) under
every start method, cold and warm, and the job must recover *in place* — byte-identical output, no whole-job serial
fallback, the targeted task's retry visible in its TaskRecord, and nothing
left behind in ``/dev/shm``.
"""

import dataclasses
import functools
import mmap
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor

import pytest

from repro.mapreduce import faults as faults_mod
from repro.mapreduce.faults import (
    ANY,
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    TaskFailedError,
    TransientTaskError,
)
from repro.mapreduce import scheduler as scheduler_mod
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import SerialExecutor, WorkerPool
from repro.mapreduce.scheduler import TaskScheduler
from repro.mapreduce.types import TaskKind
from tests.mapreduce.test_runtime import (
    _mod5_mapper,
    _padded_mapper,
    _raising_reducer,
    _sum_reducer,
    make_job,
    make_splits,
    run_pool,
)


def _shm_segments():
    """Live repro-owned shared-memory segments (Linux probe; empty elsewhere)."""
    try:
        return {
            n
            for n in os.listdir("/dev/shm")
            if n.startswith("orion") or n.startswith("psm_")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def fast_policy(**overrides):
    """A RetryPolicy whose backoff never wall-clock waits in tests."""
    overrides.setdefault("backoff_base", 0.001)
    overrides.setdefault("backoff_jitter", 0.0)
    return RetryPolicy(**overrides)


def _poison_mapper(split):
    raise ValueError(f"poisoned split {split.index}")
    yield  # pragma: no cover - makes this a generator function


# --------------------------------------------------------------------------- #
# FaultSpec / FaultInjector
# --------------------------------------------------------------------------- #


class TestFaultSpec:
    def test_validates_phase_and_kind(self):
        with pytest.raises(ValueError, match="phase"):
            FaultSpec(phase="shuffle", kind="crash")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(phase="map", kind="explode")

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_reduce_phase_is_rejected(self, kind):
        # Reducers run in the driver, as they do serially: no task to fault.
        with pytest.raises(ValueError, match="phase"):
            FaultSpec(phase="reduce", kind=kind)

    def test_fault_kinds_are_task_entry_faults(self):
        # No task touches shared memory, so there is no shm fault to inject.
        assert FAULT_KINDS == ("crash", "hang", "transient")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(phase="map", kind="shm")

    def test_plane_phase_validates_kind_and_point(self):
        spec = FaultSpec(phase="plane", kind="corrupt-segment", point="attach")
        assert spec.point == "attach"
        FaultSpec(phase="plane", kind="crash")  # point=None wildcards
        with pytest.raises(ValueError, match="plane fault kind"):
            FaultSpec(phase="plane", kind="transient")
        with pytest.raises(ValueError, match="plane fault point"):
            FaultSpec(phase="plane", kind="crash", point="teardown")
        with pytest.raises(ValueError, match="phase='plane'"):
            FaultSpec(phase="map", kind="crash", point="attach")

    def test_plane_fault_addressed_by_point(self):
        from repro.mapreduce.faults import FaultInjector

        inj = FaultInjector(
            specs=(FaultSpec(phase="plane", kind="crash", point="publish"),)
        )
        assert inj.plane_fault("publish") is not None
        assert inj.plane_fault("attach") is None
        # Plane specs never leak into task addressing, and vice versa.
        assert inj.fault_for("map", 0, 1) is None
        wildcard = FaultInjector(
            specs=(FaultSpec(phase="plane", kind="corrupt-segment"),)
        )
        assert wildcard.plane_fault("attach") is not None
        assert wildcard.plane_fault("publish") is not None

    def test_pinned_address_matches_exactly(self):
        spec = FaultSpec(phase="map", kind="transient", index=3, attempt=2)
        assert spec.matches("map", 3, 2)
        assert not spec.matches("map", 3, 1)
        assert not spec.matches("map", 2, 2)
        assert not spec.matches("reduce", 3, 2)

    def test_wildcards(self):
        spec = FaultSpec(phase="map", kind="transient")  # index=ANY, attempt=ANY
        assert spec.matches("map", 0, 1)
        assert spec.matches("map", 7, 4)
        assert not spec.matches("plane", 0, 1)
        only_first_attempt = FaultSpec(phase="map", kind="crash", attempt=1)
        assert only_first_attempt.matches("map", 5, 1)
        assert not only_first_attempt.matches("map", 5, 2)

    def test_picklable(self):
        spec = FaultSpec(phase="map", kind="hang", index=1, hang_seconds=2.0)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestFaultInjector:
    def test_explicit_spec_addressing(self):
        spec = FaultSpec(phase="map", kind="transient", index=1, attempt=1)
        inj = FaultInjector(specs=(spec,))
        assert inj.fault_for("map", 1, 1) is spec
        assert inj.fault_for("map", 1, 2) is None
        assert inj.fault_for("reduce", 1, 1) is None

    def test_fire_raises_transient(self):
        inj = FaultInjector(
            specs=(FaultSpec(phase="map", kind="transient", index=0, attempt=1),)
        )
        with pytest.raises(TransientTaskError, match="map/0 attempt 1"):
            inj.fire("map", 0, 1)
        inj.fire("map", 0, 2)  # address miss: no fault

    def test_picklable(self):
        inj = FaultInjector(
            specs=(FaultSpec(phase="map", kind="crash", index=1),)
        )
        assert pickle.loads(pickle.dumps(inj)) == inj


# --------------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="task_timeout"):
            RetryPolicy(task_timeout=0.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(backoff_jitter=1.0)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-1.0)

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "max_attempts", "task_timeout", "backoff_base", "backoff_jitter",
            "speculative", "sleep",
        ]

    def test_backoff_multiplier_is_a_module_constant(self, monkeypatch):
        monkeypatch.setattr(faults_mod, "BACKOFF_MULTIPLIER", 3.0)
        policy = RetryPolicy(backoff_base=0.01, backoff_jitter=0.0)
        assert policy.backoff_seconds(3, "map/0") == pytest.approx(0.03)
        assert policy.backoff_seconds(4, "map/0") == pytest.approx(0.09)

    def test_jitter_seed_is_a_module_constant(self, monkeypatch):
        policy = RetryPolicy(backoff_base=0.1, backoff_jitter=0.25)
        default = [policy.backoff_seconds(2, f"map/{i}") for i in range(4)]
        monkeypatch.setattr(faults_mod, "BACKOFF_SEED", 5)
        reseeded = [policy.backoff_seconds(2, f"map/{i}") for i in range(4)]
        assert reseeded != default
        assert reseeded == [policy.backoff_seconds(2, f"map/{i}") for i in range(4)]
        assert all(0.075 <= b <= 0.125 for b in reseeded)

    def test_first_attempt_never_waits(self):
        assert RetryPolicy().backoff_seconds(1, "map/0") == 0.0

    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(backoff_base=0.02, backoff_jitter=0.0)
        assert policy.backoff_seconds(2, "map/0") == pytest.approx(0.02)
        assert policy.backoff_seconds(3, "map/0") == pytest.approx(0.04)
        assert policy.backoff_seconds(4, "map/0") == pytest.approx(0.08)

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_jitter=0.25)
        first = policy.backoff_seconds(2, "map/3")
        assert first == policy.backoff_seconds(2, "map/3")
        assert 0.075 <= first <= 0.125
        # Different tasks retrying at once must not thunder in lockstep.
        others = {policy.backoff_seconds(2, f"map/{i}") for i in range(8)}
        assert len(others) > 1

    def test_single_attempt_reproduces_pre_fault_tolerance_behaviour(self):
        # max_attempts=1 is the documented escape hatch: any failure goes
        # straight to the serial-fallback ladder, even a transient one a
        # retry would have absorbed.
        spec = FaultSpec(phase="map", kind="transient", index=1, attempt=1)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_pool(
                make_job(), make_splits(4),
                retry=fast_policy(max_attempts=1),
                injector=FaultInjector(specs=(spec,)),
            )
        assert all(r.executor == "serial" for r in result.records)


# --------------------------------------------------------------------------- #
# TaskScheduler (driver-side unit tests over a thread pool / fake futures)
# --------------------------------------------------------------------------- #


@pytest.fixture
def thread_pool():
    pool = ThreadPoolExecutor(max_workers=4)
    yield pool
    pool.shutdown(wait=True)


def _noop_sleep(_seconds):
    return None


class TestTaskScheduler:
    def test_all_tasks_commit_first_attempt(self, thread_pool):
        sched = TaskScheduler(fast_policy(sleep=_noop_sleep))
        for i in range(4):
            sched.add("map", i, lambda a, i=i: thread_pool.submit(lambda: i * 10))
        sched.run()
        for i in range(4):
            assert sched.result("map", i) == i * 10
            meta = sched.meta("map", i)
            assert (meta.attempts, meta.winner, meta.speculative) == (1, 1, False)

    def test_failed_attempt_retries_and_reports_the_dead_attempt(self, thread_pool):
        sched = TaskScheduler(fast_policy(sleep=_noop_sleep))

        def work(attempt):
            if attempt == 1:
                raise TransientTaskError("first attempt dies")
            return "recovered"

        sched.add("map", 0, lambda a: thread_pool.submit(work, a))
        sched.run()
        assert sched.result("map", 0) == "recovered"
        # The trail shows the dead first attempt and the winning second.
        meta = sched.meta("map", 0)
        assert (meta.attempts, meta.winner) == (2, 2)

    def test_exhausted_budget_raises_named_chained_error(self, thread_pool):
        sched = TaskScheduler(fast_policy(max_attempts=2, sleep=_noop_sleep))

        def work(_attempt):
            raise ValueError("persistent")

        sched.add("map", 3, lambda a: thread_pool.submit(work, a))
        with pytest.raises(TaskFailedError) as ei:
            sched.run()
        assert (ei.value.phase, ei.value.index, ei.value.attempts) == ("map", 3, 2)
        assert isinstance(ei.value.__cause__, ValueError)

    def test_deadline_retry_beats_the_zombie(self, thread_pool):
        sched = TaskScheduler(fast_policy(task_timeout=0.15, sleep=_noop_sleep))

        def work(attempt):
            if attempt == 1:
                time.sleep(0.6)  # straggles past the deadline
            return f"attempt-{attempt}"

        sched.add("map", 0, lambda a: thread_pool.submit(work, a))
        sched.run()
        assert sched.result("map", 0) == "attempt-2"
        meta = sched.meta("map", 0)
        assert (meta.attempts, meta.winner) == (2, 2)

    def test_zombie_that_finishes_first_still_wins(self, thread_pool):
        sched = TaskScheduler(
            fast_policy(max_attempts=2, task_timeout=0.3, sleep=_noop_sleep)
        )

        def work(attempt):
            # Attempt 1 misses the deadline but lands well before its
            # replacement: first commit wins, the replacement is discarded.
            time.sleep(0.45 if attempt == 1 else 0.8)
            return f"attempt-{attempt}"

        sched.add("map", 0, lambda a: thread_pool.submit(work, a))
        sched.run()
        assert sched.result("map", 0) == "attempt-1"
        meta = sched.meta("map", 0)
        assert (meta.attempts, meta.winner) == (2, 1)

    def test_speculation_duplicates_the_straggler(self, thread_pool, monkeypatch):
        monkeypatch.setattr(scheduler_mod, "SPECULATIVE_FRACTION", 0.5)
        monkeypatch.setattr(scheduler_mod, "SPECULATIVE_MULTIPLIER", 1.5)
        sched = TaskScheduler(fast_policy(speculative=True, sleep=_noop_sleep))

        def work(index, attempt):
            if index == 3 and attempt == 1:
                time.sleep(0.8)  # the straggler a duplicate must race
            return (index, attempt)

        for i in range(4):
            sched.add("map", i, lambda a, i=i: thread_pool.submit(work, i, a))
        sched.run()
        meta = sched.meta("map", 3)
        assert meta.speculative
        assert meta.attempts == 2
        assert sched.result("map", 3) == (3, 2)  # the duplicate won
        assert all(not sched.meta("map", i).speculative for i in range(3))

    def test_run_returns_without_draining_a_zombie(self, thread_pool):
        # Attempts return their output rather than write it anywhere, so
        # nothing waits for a timed-out straggler once its task committed.
        sched = TaskScheduler(fast_policy(task_timeout=0.1, sleep=_noop_sleep))

        def work(attempt):
            if attempt == 1:
                time.sleep(1.5)
            return attempt

        sched.add("map", 0, lambda a: thread_pool.submit(work, a))
        start = time.monotonic()
        sched.run()
        assert time.monotonic() - start < 1.0
        assert sched.result("map", 0) == 2

    def test_no_speculation_below_the_fraction(self, thread_pool):
        # Half the tasks straggle far past 2x the mean committed duration,
        # but at 2 of 4 committed the default SPECULATIVE_FRACTION (0.75) is
        # not reached: nothing is duplicated until the stragglers are released.
        assert scheduler_mod.SPECULATIVE_FRACTION == 0.75
        release = threading.Event()
        early_duplicates = []

        def work(index):
            if index >= 2:
                release.wait(5.0)
            return index

        def submit(index, attempt):
            if attempt > 1 and not release.is_set():
                early_duplicates.append((index, attempt))
            return thread_pool.submit(work, index)

        sched = TaskScheduler(fast_policy(speculative=True, sleep=_noop_sleep))
        for i in range(4):
            sched.add("map", i, lambda a, i=i: submit(i, a))
        timer = threading.Timer(0.4, release.set)
        timer.start()
        try:
            sched.run()
        finally:
            timer.join(5.0)
        assert [sched.result("map", i) for i in range(4)] == [0, 1, 2, 3]
        assert early_duplicates == []

    def test_broken_future_respawns_pool_once_and_retries(self):
        respawns = []

        def submit(attempt):
            fut = Future()
            if attempt == 1:
                fut.set_exception(BrokenExecutor("pool died"))
            else:
                fut.set_result("after respawn")
            return fut

        sched = TaskScheduler(
            fast_policy(sleep=_noop_sleep), respawn=lambda: respawns.append(1)
        )
        sched.add("map", 0, submit)
        sched.run()
        assert sched.result("map", 0) == "after respawn"
        assert sched.meta("map", 0).attempts == 2
        assert len(respawns) == 1

    def test_submit_onto_broken_pool_respawns_and_resubmits(self):
        respawns = []
        calls = []

        def submit(attempt):
            calls.append(attempt)
            if len(calls) == 1:
                raise BrokenExecutor("pool already broken at submit")
            fut = Future()
            fut.set_result("ok")
            return fut

        sched = TaskScheduler(
            fast_policy(sleep=_noop_sleep), respawn=lambda: respawns.append(1)
        )
        sched.add("map", 0, submit)
        sched.run()
        assert sched.result("map", 0) == "ok"
        assert calls == [1, 1]  # same attempt resubmitted, not a retry
        assert sched.meta("map", 0).attempts == 1
        assert len(respawns) == 1

    def test_backoff_waits_route_through_the_injectable_sleep(self):
        slept = []

        def submit(attempt):
            fut = Future()
            if attempt < 3:
                fut.set_exception(TransientTaskError(f"attempt {attempt}"))
            else:
                fut.set_result("third time lucky")
            return fut

        policy = RetryPolicy(
            backoff_base=0.01, backoff_jitter=0.0, sleep=slept.append
        )
        sched = TaskScheduler(policy)
        sched.add("map", 0, submit)
        sched.run()
        assert sched.result("map", 0) == "third time lucky"
        # Both backoffs blocked through the hook (no futures were in
        # flight), with the exponential schedule's delays.
        assert len(slept) >= 2
        assert max(slept) <= 0.03


# --------------------------------------------------------------------------- #
# the fault matrix: every kind x start method x lifecycle recovers
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def serial_output():
    return SerialExecutor().run(make_job(), make_splits(4)).outputs


def _job_summary(result):
    """Outputs and each record's position, id, kind and counts."""
    return (
        result.outputs,
        [
            (i, r.task_id, r.kind, r.input_records, r.output_records)
            for i, r in enumerate(result.records)
        ],
    )


def _record_for(result, phase, index):
    kind = TaskKind.MAP if phase == "map" else TaskKind.REDUCE
    matches = [
        r
        for r in result.records
        if r.kind is kind and r.task_id.endswith(f"{index:05d}")
    ]
    assert len(matches) == 1, matches
    return matches[0]


def run_faulted(job, splits, lifecycle, injector, **kwargs):
    """Run ``job`` under ``injector`` on a fresh two-worker WorkerPool.

    ``lifecycle="cold"`` arms the injector from the start, so the fault
    strikes the job that starts the pool. ``"warm"`` first serves the same
    job cleanly and only then arms the injector: the fault strikes live
    workers that already hold the job in their cache — the state a reused
    pool is in for every query after the first.
    """
    kwargs.setdefault("max_workers", 2)
    with WorkerPool(**kwargs) as pool:
        if lifecycle == "warm":
            assert pool.run(job, splits).outputs
        pool.injector = injector
        return pool.run(job, splits)


class TestFaultMatrix:
    @pytest.mark.parametrize("lifecycle", ["cold", "warm"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("kind", ["crash", "hang", "transient"])
    def test_one_fault_recovers_in_place(self, kind, start_method, lifecycle):
        spec = FaultSpec(
            phase="map", kind=kind, index=1, attempt=1, hang_seconds=1.5
        )
        if kind == "hang":
            # Deadlines run from submit, so while spawned workers boot (about
            # 1 s on a loaded 2-vCPU box) attempts of unfaulted tasks time
            # out too; eight attempts outlast a boot of ~2.5 s.
            policy = fast_policy(task_timeout=0.35, max_attempts=8)
        else:
            policy = fast_policy()
        splits = make_splits(4)
        expected = SerialExecutor().run(make_job(), splits).outputs
        before = _shm_segments()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any serial fallback fails the test
            result = run_faulted(
                make_job(), splits, lifecycle, FaultInjector(specs=(spec,)),
                start_method=start_method,
                retry=policy,
            )

        assert result.outputs == expected
        assert all(r.executor == "processes" for r in result.records)
        assert all(r.fallback_reason == "" for r in result.records)

        target = _record_for(result, "map", 1)
        if kind == "hang":
            # The hung first attempt never wins, but on a cold spawn worker
            # the replacement can outlive the deadline too and be replaced
            # in turn, so only a lower bound on the winner is exact.
            assert target.winner >= 2
            assert target.attempts >= target.winner
        else:
            assert target.attempts == 2
            assert target.winner == 2
        assert _shm_segments() - before == set()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_recovered_job_result_equals_serial(self, kind, start_method):
        """After a map task recovers in place, the driver's shuffle and
        reducers see what the serial ones see: the ``JobResult`` equals the
        serial one field by field, reduce records included."""
        job, splits = make_job(), make_splits(6)
        spec = FaultSpec(phase="map", kind=kind, index=2, attempt=1, hang_seconds=1.5)
        if kind == "hang":
            policy = fast_policy(task_timeout=0.35, max_attempts=8)
        else:
            policy = fast_policy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_pool(
                job, splits, start_method=start_method, retry=policy,
                injector=FaultInjector(specs=(spec,)),
            )
        assert _job_summary(result) == _job_summary(SerialExecutor().run(job, splits))
        assert all(r.executor == "processes" for r in result.records)
        assert _record_for(result, "map", 2).attempts >= 2
        assert all(r.attempts == 1 for r in result.reduce_records())

    def test_speculative_duplicate_races_an_injected_straggler(
        self, serial_output, monkeypatch
    ):
        # No deadline here: speculation alone must rescue the hung task.
        monkeypatch.setattr(scheduler_mod, "SPECULATIVE_FRACTION", 0.5)
        monkeypatch.setattr(scheduler_mod, "SPECULATIVE_MULTIPLIER", 1.5)
        spec = FaultSpec(
            phase="map", kind="hang", index=1, attempt=1, hang_seconds=1.5
        )
        policy = fast_policy(speculative=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_pool(
                make_job(), make_splits(4),
                max_workers=4,
                retry=policy,
                injector=FaultInjector(specs=(spec,)),
            )
        assert result.outputs == serial_output
        target = _record_for(result, "map", 1)
        assert target.speculative
        assert target.attempts == 2
        assert target.winner == 2


class TestWorkerPoolFaults:
    def test_crash_respawns_and_the_pool_stays_usable(self, serial_output):
        spec = FaultSpec(phase="map", kind="crash", index=1, attempt=1)
        before = _shm_segments()
        pool = WorkerPool(
            max_workers=2,
            retry=fast_policy(),
            injector=FaultInjector(specs=(spec,)),
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                first = pool.run(make_job(), make_splits(4))
                second = pool.run(make_job(), make_splits(4))
        finally:
            pool.shutdown()
        assert first.outputs == serial_output
        assert second.outputs == serial_output
        assert _record_for(first, "map", 1).attempts == 2
        assert _shm_segments() - before == set()

    def test_recovered_map_crash_then_reducer_exception_propagates(self):
        # The map phase recovers in place; the reducer's own exception then
        # propagates, neither retried nor turned into a serial fallback.
        job = MapReduceJob(
            mapper=_mod5_mapper, reducer=_raising_reducer, name="r"
        )
        spec = FaultSpec(phase="map", kind="crash", index=1, attempt=1)
        with WorkerPool(
            max_workers=2, retry=fast_policy(), injector=FaultInjector(specs=(spec,))
        ) as pool:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(KeyError, match="reducer refuses key"):
                    pool.run(job, make_splits(4))
            assert pool.started


# --------------------------------------------------------------------------- #
# acceptance: one delayed crash, recovered without any serial work
# --------------------------------------------------------------------------- #


class TestAcceptanceSingleCrash:
    def test_crashed_map_task_is_redone_alone(self, serial_output):
        """ISSUE 5 acceptance: a worker crash killing exactly one map task
        of a 4-worker streaming run is recovered by retrying that one task
        on a respawned pool — no serial fallback, byte-identical output,
        exactly one record shows a second attempt, nothing leaks."""
        before = _shm_segments()
        # The delay lets the crasher's ms-fast wave-mates commit first, so
        # precisely one task is in flight when the pool breaks.
        spec = FaultSpec(phase="map", kind="crash", index=1, attempt=1, delay=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fallback warning fails the test
            result = run_pool(
                make_job(), make_splits(4),
                max_workers=4,
                retry=fast_policy(),
                injector=FaultInjector(specs=(spec,)),
            )

        assert result.outputs == serial_output
        assert all(r.executor == "processes" for r in result.records)
        retried = [r for r in result.records if r.attempts > 1]
        assert len(retried) == 1
        (record,) = retried
        assert record.kind is TaskKind.MAP
        assert record.task_id.endswith("00001")
        assert (record.attempts, record.winner) == (2, 2)
        assert _shm_segments() - before == set()


# --------------------------------------------------------------------------- #
# the fallback ladder: exhaustion, reasons, and unmasked causes
# --------------------------------------------------------------------------- #


class TestFallbackLadder:
    def test_exhausted_budget_falls_back_with_reason_stamped(self, serial_output):
        # attempt=ANY: the fault outlives every retry, so the budget spends
        # out and the job reruns serially — correctly, with forensics.
        spec = FaultSpec(phase="map", kind="transient", index=1, attempt=ANY)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_pool(
                make_job(), make_splits(4),
                retry=fast_policy(max_attempts=2),
                injector=FaultInjector(specs=(spec,)),
            )
        assert result.outputs == serial_output
        assert all(r.executor == "serial" for r in result.records)
        assert all("TaskFailedError" in r.fallback_reason for r in result.records)

    @pytest.mark.parametrize("lifecycle", ["cold", "warm"])
    def test_exhaustion_sweeps_blob_before_serial_rerun(
        self, lifecycle, serial_output
    ):
        # An above-page job rides in every task message: neither the
        # abandoned pool run nor the serial rerun leaves a segment.
        job = MapReduceJob(
            mapper=functools.partial(_padded_mapper, bytes(2 * mmap.PAGESIZE)),
            reducer=_sum_reducer, name="t",
        )
        assert len(pickle.dumps(job.mapper)) > mmap.PAGESIZE
        spec = FaultSpec(phase="map", kind="transient", index=0, attempt=ANY)
        before = _shm_segments()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_faulted(
                job, make_splits(4), lifecycle,
                FaultInjector(specs=(spec,)),
                retry=fast_policy(max_attempts=2),
            )
        assert result.outputs == serial_output
        assert _shm_segments() - before == set()

    @pytest.mark.parametrize("lifecycle", ["cold", "warm"])
    def test_fallback_result_equals_serial_field_by_field(self, lifecycle):
        job, splits = make_job(), make_splits(5)
        spec = FaultSpec(phase="map", kind="transient", index=3, attempt=ANY)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_faulted(
                job, splits, lifecycle, FaultInjector(specs=(spec,)),
                retry=fast_policy(max_attempts=2),
            )
        assert _job_summary(result) == _job_summary(SerialExecutor().run(job, splits))
        assert all(r.executor == "serial" for r in result.records)

    def test_serial_failure_does_not_mask_the_original_task_error(self):
        job = MapReduceJob(
            mapper=_poison_mapper, reducer=_sum_reducer, name="t"
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            with pytest.raises(RuntimeError, match="also failed") as ei:
                run_pool(job, make_splits(2), retry=fast_policy(max_attempts=2))
        # The raised error names the failing task and chains the original.
        assert "original failure was map task" in str(ei.value)
        assert isinstance(ei.value.__cause__, TaskFailedError)
        assert ei.value.__cause__.phase == "map"
        assert ei.value.__cause__.attempts == 2
