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
import time
import warnings
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor

import pytest

from repro.mapreduce.faults import (
    ANY,
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    TaskFailedError,
    TransientTaskError,
)
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

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "max_attempts", "task_timeout",
        ]

    def test_single_attempt_reproduces_pre_fault_tolerance_behaviour(self):
        # max_attempts=1 is the documented escape hatch: any failure goes
        # straight to the serial-fallback ladder, even a transient one a
        # retry would have absorbed.
        spec = FaultSpec(phase="map", kind="transient", index=1, attempt=1)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_pool(
                make_job(), make_splits(4),
                retry=RetryPolicy(max_attempts=1),
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


class TestTaskScheduler:
    def test_all_tasks_commit_first_attempt(self, thread_pool):
        sched = TaskScheduler(RetryPolicy())
        for i in range(4):
            sched.add(i, lambda a, i=i: thread_pool.submit(lambda: i * 10))
        sched.run()
        for i in range(4):
            assert sched.result(i) == i * 10
            meta = sched.meta(i)
            assert (meta.attempts, meta.winner) == (1, 1)

    def test_failed_attempt_retries_and_reports_the_dead_attempt(
        self, thread_pool
    ):
        sched = TaskScheduler(RetryPolicy())

        def work(attempt):
            if attempt == 1:
                raise TransientTaskError("first attempt dies")
            return "recovered"

        sched.add(0, lambda a: thread_pool.submit(work, a))
        sched.run()
        assert sched.result(0) == "recovered"
        # The trail shows the dead first attempt and the winning second.
        meta = sched.meta(0)
        assert (meta.attempts, meta.winner) == (2, 2)

    def test_exhausted_budget_raises_named_chained_error(
        self, thread_pool
    ):
        sched = TaskScheduler(RetryPolicy(max_attempts=2))

        def work(_attempt):
            raise ValueError("persistent")

        sched.add(3, lambda a: thread_pool.submit(work, a))
        with pytest.raises(TaskFailedError) as ei:
            sched.run()
        assert (ei.value.index, ei.value.attempts) == (3, 2)
        assert str(ei.value).startswith("map task 3 failed after 2 attempt(s)")
        assert isinstance(ei.value.__cause__, ValueError)

    def test_deadline_retry_beats_the_zombie(self, thread_pool):
        sched = TaskScheduler(RetryPolicy(task_timeout=0.15))

        def work(attempt):
            if attempt == 1:
                time.sleep(0.6)  # straggles past the deadline
            return f"attempt-{attempt}"

        sched.add(0, lambda a: thread_pool.submit(work, a))
        sched.run()
        assert sched.result(0) == "attempt-2"
        meta = sched.meta(0)
        assert (meta.attempts, meta.winner) == (2, 2)

    def test_zombie_that_finishes_first_still_wins(self, thread_pool):
        sched = TaskScheduler(RetryPolicy(max_attempts=2, task_timeout=0.3))

        def work(attempt):
            # Attempt 1 misses the deadline but lands well before its
            # replacement: first commit wins, the replacement is discarded.
            time.sleep(0.45 if attempt == 1 else 0.8)
            return f"attempt-{attempt}"

        sched.add(0, lambda a: thread_pool.submit(work, a))
        sched.run()
        assert sched.result(0) == "attempt-1"
        meta = sched.meta(0)
        assert (meta.attempts, meta.winner) == (2, 1)

    def test_run_returns_without_draining_a_zombie(self, thread_pool):
        # Attempts return their output rather than write it anywhere, so
        # nothing waits for a timed-out straggler once its task committed.
        sched = TaskScheduler(RetryPolicy(task_timeout=0.1))

        def work(attempt):
            if attempt == 1:
                time.sleep(1.5)
            return attempt

        sched.add(0, lambda a: thread_pool.submit(work, a))
        start = time.monotonic()
        sched.run()
        assert time.monotonic() - start < 1.0
        assert sched.result(0) == 2

    def test_broken_future_respawns_pool_once_and_retries(self):
        respawns = []

        def submit(attempt):
            fut = Future()
            if attempt == 1:
                fut.set_exception(BrokenExecutor("pool died"))
            else:
                fut.set_result("after respawn")
            return fut

        sched = TaskScheduler(RetryPolicy(), respawn=lambda: respawns.append(1))
        sched.add(0, submit)
        sched.run()
        assert sched.result(0) == "after respawn"
        assert sched.meta(0).attempts == 2
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

        sched = TaskScheduler(RetryPolicy(), respawn=lambda: respawns.append(1))
        sched.add(0, submit)
        sched.run()
        assert sched.result(0) == "ok"
        assert calls == [1, 1]  # same attempt resubmitted, not a retry
        assert sched.meta(0).attempts == 1
        assert len(respawns) == 1

    def test_retry_launches_without_waiting(self):
        def submit(attempt):
            fut = Future()
            if attempt < 4:
                fut.set_exception(TransientTaskError(f"attempt {attempt}"))
            else:
                fut.set_result("fourth time lucky")
            return fut

        sched = TaskScheduler(RetryPolicy(max_attempts=4))
        sched.add(0, submit)
        start = time.monotonic()
        sched.run()
        # Each replacement is submitted as its predecessor settles: the
        # pool's queue is the only wait, so nothing sleeps between attempts.
        assert time.monotonic() - start < 0.05
        assert sched.result(0) == "fourth time lucky"
        assert (sched.meta(0).attempts, sched.meta(0).winner) == (4, 4)


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


def _record_for(result, index):
    """The map record of split ``index``."""
    matches = [
        r
        for r in result.records
        if r.kind is TaskKind.MAP and r.task_id.endswith(f"{index:05d}")
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
    def test_one_fault_recovers_in_place(
        self, kind, start_method, lifecycle
    ):
        spec = FaultSpec(
            phase="map", kind=kind, index=1, attempt=1, hang_seconds=1.5
        )
        if kind == "hang":
            # Deadlines run from submit, so while spawned workers boot (about
            # 1 s on a loaded 2-vCPU box) attempts of unfaulted tasks time
            # out too; eight attempts outlast a boot of ~2.5 s.
            policy = RetryPolicy(task_timeout=0.35, max_attempts=8)
        else:
            policy = RetryPolicy()
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

        target = _record_for(result, 1)
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
            policy = RetryPolicy(task_timeout=0.35, max_attempts=8)
        else:
            policy = RetryPolicy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_pool(
                job, splits, start_method=start_method, retry=policy,
                injector=FaultInjector(specs=(spec,)),
            )
        assert _job_summary(result) == _job_summary(SerialExecutor().run(job, splits))
        assert all(r.executor == "processes" for r in result.records)
        assert _record_for(result, 2).attempts >= 2
        assert all(r.attempts == 1 for r in result.reduce_records())

class TestWorkerPoolFaults:
    def test_crash_respawns_and_the_pool_stays_usable(self, serial_output):
        spec = FaultSpec(phase="map", kind="crash", index=1, attempt=1)
        before = _shm_segments()
        pool = WorkerPool(
            max_workers=2,
            retry=RetryPolicy(),
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
        assert _record_for(first, 1).attempts == 2
        assert _shm_segments() - before == set()

    def test_recovered_map_crash_then_reducer_exception_propagates(self):
        # The map phase recovers in place; the reducer's own exception then
        # propagates, neither retried nor turned into a serial fallback.
        job = MapReduceJob(
            mapper=_mod5_mapper, reducer=_raising_reducer, name="r"
        )
        spec = FaultSpec(phase="map", kind="crash", index=1, attempt=1)
        with WorkerPool(
            max_workers=2, retry=RetryPolicy(), injector=FaultInjector(specs=(spec,))
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
                retry=RetryPolicy(),
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
    @pytest.mark.parametrize("kind", ["transient", "hang"])
    def test_exhausted_budget_falls_back_with_reason_stamped(
        self, kind, serial_output
    ):
        # attempt=ANY: the fault outlives every retry, so the budget spends
        # out and the job reruns serially — correctly, with forensics. For
        # a hang, each missed deadline spends one attempt, so a task that
        # hangs every time still ends the job without waiting the hang out.
        hang_seconds = 3.0
        spec = FaultSpec(
            phase="map", kind=kind, index=1, attempt=ANY, hang_seconds=hang_seconds
        )
        start = time.monotonic()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_pool(
                make_job(), make_splits(4),
                retry=RetryPolicy(
                    max_attempts=2, task_timeout=0.25 if kind == "hang" else None
                ),
                injector=FaultInjector(specs=(spec,)),
            )
        assert time.monotonic() - start < hang_seconds
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
                retry=RetryPolicy(max_attempts=2),
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
                retry=RetryPolicy(max_attempts=2),
            )
        assert _job_summary(result) == _job_summary(SerialExecutor().run(job, splits))
        assert all(r.executor == "serial" for r in result.records)

    def test_serial_failure_does_not_mask_the_original_task_error(self):
        job = MapReduceJob(
            mapper=_poison_mapper, reducer=_sum_reducer, name="t"
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            with pytest.raises(RuntimeError, match="also failed") as ei:
                run_pool(job, make_splits(2), retry=RetryPolicy(max_attempts=2))
        # The raised error names the failing task and chains the original.
        assert "original failure was map task" in str(ei.value)
        assert isinstance(ei.value.__cause__, TaskFailedError)
        assert ei.value.__cause__.attempts == 2
