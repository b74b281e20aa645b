"""Tests for executors: correctness, determinism, task records."""

import functools
import mmap
import multiprocessing
import os
import pickle
import time

import pytest

from repro.mapreduce import runtime as runtime_mod
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.faults import (
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    TaskFailedError,
)
from repro.mapreduce.job import MapReduceJob, UndeclaredPartitionError
from repro.mapreduce.runtime import (
    EXECUTOR_KINDS,
    SerialExecutor,
    WorkerPool,
    resolve_executor,
)
from repro.mapreduce.types import InputSplit, TaskKind


# Module-level map/reduce functions so jobs built from them are picklable
# (the process-pool tests need this; closures are the fallback case).
def _mod5_mapper(split):
    for x in split.payload:
        yield x % 5, x


def _sum_reducer(key, values):
    yield key, sum(values)


#: Long enough that one reduce wave vs two is visible over pool startup
#: noise (sleeps need no CPU, so this is robust on single-core CI too).
_REDUCE_SLEEP = 1.5


def _sleeping_reducer(key, values):
    time.sleep(_REDUCE_SLEEP)
    yield key, sum(values)


def _mod4_mapper(split):
    for x in split.payload:
        yield x % 4, x


def _blob_mapper(split):
    # One pair per task whose value is ``payload`` zero bytes: the pickled
    # run's size is the payload plus a constant.
    yield 0, bytes(split.payload)


def _blob_reducer(key, values):
    yield key, [len(v) for v in values]


def _blob_overhead():
    """Pickled-run bytes beyond the blob itself (constant from 256 B up)."""
    run = [(0, bytes(1000))]
    return len(pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)) - 1000


def _log_segment_calls(monkeypatch, path):
    """Make write/read_segment append their name to ``path``.

    Worker processes forked after this call inherit the patch; appends
    from several processes to one ``O_APPEND`` file do not interleave.
    """
    for fn_name in ("write_segment", "read_segment"):
        original = getattr(shm_mod, fn_name)

        def logged(*args, _original=original, _fn_name=fn_name, **kwargs):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{_fn_name}\n".encode())
            finally:
                os.close(fd)
            return _original(*args, **kwargs)

        monkeypatch.setattr(shm_mod, fn_name, logged)


def _padded_mapper(padding, split):
    # ``padding`` rides in the job pickle, pushing the blob past one page.
    for x in split.payload:
        yield x % 5, x


def _identity_partitioner(key, num_reducers):
    # One key per partition: every reduce task sleeps exactly once, making
    # the number of reduce waves directly readable from the wall clock.
    return key % num_reducers


def make_job(n_red=2):
    return MapReduceJob(
        mapper=_mod5_mapper, reducer=_sum_reducer, num_reducers=n_red, name="t"
    )


def make_splits(n=6, width=10):
    return [
        InputSplit(index=i, payload=list(range(i * width, (i + 1) * width)))
        for i in range(n)
    ]


def run_pool(job, splits, **kwargs):
    """Run one job on a fresh two-worker WorkerPool, shut down on return."""
    kwargs.setdefault("max_workers", 2)
    with WorkerPool(**kwargs) as pool:
        return pool.run(job, splits)


#: Fails every map task's spill write, so every run commits inline.
_EVERY_SPILL_FAILS = FaultInjector(specs=(FaultSpec(phase="map", kind="shm"),))


def expected_totals(n=6, width=10):
    expected = {}
    for x in range(n * width):
        expected[x % 5] = expected.get(x % 5, 0) + x
    return expected


class TestSerialExecutor:
    def test_outputs_correct(self):
        result = SerialExecutor().run(make_job(), make_splits())
        assert dict(result.flat_outputs()) == expected_totals()

    def test_task_records(self):
        result = SerialExecutor().run(make_job(3), make_splits(4))
        assert len(result.map_records()) == 4
        assert len(result.reduce_records()) == 3
        assert all(r.duration >= 0 for r in result.records)
        assert result.shuffle_keys == 5

    def test_task_ids_unique(self):
        result = SerialExecutor().run(make_job(), make_splits())
        ids = [r.task_id for r in result.records]
        assert len(set(ids)) == len(ids)

    def test_empty_splits(self):
        result = SerialExecutor().run(make_job(), [])
        assert result.flat_outputs() == []
        assert len(result.reduce_records()) == 2  # reducers still run (empty)

    def test_records_simulator_safe(self):
        """Serial measurements are the simulator's contract."""
        result = SerialExecutor().run(make_job(), make_splits())
        assert all(r.executor == "serial" for r in result.records)
        assert all(r.simulator_safe for r in result.records)

    def test_map_input_records_counts_list_payload(self):
        """Regression: input_records must report the split payload size, not
        a hardcoded 1 (streaming splits are record batches)."""
        result = SerialExecutor().run(make_job(), make_splits(n=3, width=7))
        assert [r.input_records for r in result.map_records()] == [7, 7, 7]

    def test_map_input_records_descriptor_payload_is_one(self):
        """Non-list payloads (Orion's (fragment, shard) descriptors) are one
        logical record, not len(tuple) records."""

        def descriptor_mapper(split):
            yield split.payload[0], split.payload[1]

        job = MapReduceJob(mapper=descriptor_mapper, reducer=_sum_reducer, name="d")
        result = SerialExecutor().run(job, [InputSplit(index=0, payload=("k", 3))])
        assert result.map_records()[0].input_records == 1


class TestProcessPool:
    def test_matches_serial(self):
        job = make_job(3)
        splits = make_splits(8)
        serial = SerialExecutor().run(job, splits)
        proc = run_pool(job, splits)
        assert serial.outputs == proc.outputs
        assert serial.shuffle_keys == proc.shuffle_keys

    def test_records_tagged(self):
        result = run_pool(make_job(2), make_splits(4))
        assert len(result.map_records()) == 4
        assert len(result.reduce_records()) == 2
        assert all(r.executor == "processes" for r in result.records)
        assert not any(r.simulator_safe for r in result.records)

    def test_deterministic_record_order(self):
        """Map records come back in split order, reduce in partition order,
        regardless of which worker ran what."""
        result = run_pool(make_job(3), make_splits(6))
        assert [r.task_id for r in result.map_records()] == [
            f"t/map/{i:05d}" for i in range(6)
        ]
        assert [r.task_id for r in result.reduce_records()] == [
            f"t/reduce/{i:05d}" for i in range(3)
        ]

    def test_unpicklable_job_falls_back_to_serial(self):
        captured = []

        def closure_mapper(split):  # local function: not picklable
            for x in split.payload:
                captured.append(x)
                yield x % 5, x

        job = MapReduceJob(mapper=closure_mapper, reducer=_sum_reducer, name="c")
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_pool(job, make_splits(3))
        assert dict(result.flat_outputs()) == expected_totals(3)
        # The fallback truthfully tags its records as serial measurements.
        assert all(r.executor == "serial" for r in result.records)
        assert captured  # the closure really ran, in this process

    def test_empty_splits(self):
        result = run_pool(make_job(), [])
        assert result.flat_outputs() == []

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)

    def test_job_travels_by_the_page_rule(self, monkeypatch):
        """Dispatch ships a job ref, never the job object: a blob of at
        most one page rides inline in each task item, a larger one goes
        once through a segment and the item carries only its name."""
        submitted = []
        real_pool = runtime_mod.ProcessPoolExecutor

        class RecordingPool(real_pool):
            def submit(self, fn, *args, **kwargs):
                submitted.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(runtime_mod, "ProcessPoolExecutor", RecordingPool)
        small = make_job()
        large = MapReduceJob(
            mapper=functools.partial(_padded_mapper, bytes(2 * mmap.PAGESIZE)),
            reducer=_sum_reducer, num_reducers=2, name="t",
        )
        assert len(pickle.dumps(small)) <= mmap.PAGESIZE < len(pickle.dumps(large))
        for job in (small, large):
            submitted.clear()
            result = run_pool(job, make_splits(3))
            assert dict(result.flat_outputs()) == expected_totals(3)
            refs = {item[0] for item in submitted}
            assert len(submitted) == 3 + 2 and len(refs) == 1
            (ref,) = refs
            assert not any(isinstance(part, MapReduceJob) for part in submitted[0])
            if job is small:
                assert ref.segment is None and ref.inline == pickle.dumps(small)
            else:
                assert ref.segment is not None and ref.inline is None
                assert ref.size == len(pickle.dumps(large))

    def test_pool_sized_for_reduce_phase(self):
        """Regression: one pool serves both phases, so a reduce phase wider
        than the map phase must still run in one wave — sizing the pool by
        splits alone silently serializes it."""
        job = MapReduceJob(
            mapper=_mod4_mapper,
            reducer=_sleeping_reducer,
            num_reducers=4,
            partitioner=_identity_partitioner,
            name="w",
        )
        start = time.monotonic()
        result = run_pool(job, make_splits(2), max_workers=8)
        wall = time.monotonic() - start
        totals = dict(result.flat_outputs())
        assert totals == {k: sum(x for x in range(20) if x % 4 == k) for k in range(4)}
        # Each partition holds exactly one key, so all four reduce tasks
        # sleep once and ran in one wave. A pool capped at len(splits)=2
        # needs two waves, so its reduce phase alone takes ≥ 2×_REDUCE_SLEEP.
        assert wall < 2 * _REDUCE_SLEEP


class TestStreamingShuffle:
    def test_matches_serial(self):
        job = make_job(3)
        splits = make_splits(8)
        serial = SerialExecutor().run(job, splits)
        stream = run_pool(job, splits)
        assert stream.outputs == serial.outputs
        assert stream.shuffle_keys == serial.shuffle_keys

    def test_record_order_and_shuffle_bytes(self):
        """Records stay in split/partition order despite as_completed
        scheduling, and map spill bytes balance reduce fetch bytes."""
        result = run_pool(make_job(3), make_splits(6))
        assert [r.task_id for r in result.map_records()] == [
            f"t/map/{i:05d}" for i in range(6)
        ]
        assert [r.task_id for r in result.reduce_records()] == [
            f"t/reduce/{i:05d}" for i in range(3)
        ]
        out_bytes = sum(r.shuffle_bytes_out for r in result.map_records())
        in_bytes = sum(r.shuffle_bytes_in for r in result.reduce_records())
        assert out_bytes == in_bytes > 0

    def test_empty_partitions(self):
        """More reducers than keys: empty runs (zero-length slices) flow
        through the streaming shuffle without pickling or attaching."""
        job = make_job(8)  # only 5 distinct keys exist
        splits = make_splits(1)
        serial = SerialExecutor().run(job, splits)
        stream = run_pool(job, splits)
        assert stream.outputs == serial.outputs

    def test_inline_fallback_without_shm(self, monkeypatch, tmp_path):
        """When every spill write fails, above-page runs ride inline
        through the result pipe — same outputs, bytes still accounted,
        no segment read."""
        log = tmp_path / "segment_calls"
        _log_segment_calls(monkeypatch, str(log))
        splits = make_splits(4, width=2000)
        stream = run_pool(
            make_job(2), splits, start_method="fork", injector=_EVERY_SPILL_FAILS
        )
        assert dict(stream.flat_outputs()) == expected_totals(4, width=2000)
        assert all(
            r.shuffle_bytes_out > mmap.PAGESIZE for r in stream.map_records()
        )
        assert all(r.attempts == 1 for r in stream.map_records())
        assert not log.exists() or log.read_text() == ""

    def test_inline_fallback_without_spill_set(self, monkeypatch, tmp_path):
        """When the run's segment owner cannot be created, the job blob
        and every run ride inline — with a warning, exact outputs."""

        def no_anchor():
            raise OSError("injected: no /dev/shm")

        log = tmp_path / "segment_calls"
        _log_segment_calls(monkeypatch, str(log))
        monkeypatch.setattr(shm_mod, "_create_anchor", no_anchor)
        splits = make_splits(4, width=2000)
        with pytest.warns(RuntimeWarning, match="shipping inline per task"):
            stream = run_pool(make_job(3), splits, start_method="fork")
        assert dict(stream.flat_outputs()) == expected_totals(4, width=2000)
        assert all(r.executor == "processes" for r in stream.records)
        assert not log.exists() or log.read_text() == ""

    def test_page_rule_is_inclusive(self):
        """Runs totalling exactly one page commit inline; one byte more
        spills (the rule is ``total > mmap.PAGESIZE``, no tunable)."""
        job = MapReduceJob(
            mapper=_blob_mapper, reducer=_blob_reducer, num_reducers=1, name="b"
        )
        fits = mmap.PAGESIZE - _blob_overhead()
        with shm_mod.SpillSet() as spills:
            inline = runtime_mod._spill_map_output(
                job, [(0, bytes(fits))], spills.name_for(0)
            )
            assert inline.total_bytes == mmap.PAGESIZE
            assert inline.segment is None and inline.inline is not None
            assert not shm_mod.segment_exists(spills.name_for(0))

            spilled = runtime_mod._spill_map_output(
                job, [(0, bytes(fits + 1))], spills.name_for(1)
            )
            assert spilled.total_bytes == mmap.PAGESIZE + 1
            assert spilled.segment == spills.name_for(1) and spilled.inline is None
            assert shm_mod.segment_exists(spills.name_for(1))
        assert not shm_mod.segment_exists(spilled.segment)

    def test_sub_page_job_touches_no_segment(self, monkeypatch, tmp_path):
        """A job whose every map output fits in a page never creates,
        attaches or sweeps a spill segment — in the workers or the driver."""
        log = tmp_path / "segment_calls"
        _log_segment_calls(monkeypatch, str(log))

        def run(splits):
            return run_pool(make_job(3), splits, start_method="fork")

        result = run(make_splits(6))
        assert dict(result.flat_outputs()) == expected_totals(6)
        assert all(r.executor == "processes" for r in result.records)
        assert not log.exists() or log.read_text() == ""

        # The same harness does see an above-page job's segments.
        run(make_splits(2, width=2000))
        calls = log.read_text().split()
        assert calls.count("write_segment") == 2  # one per map task
        # Every segment is fetched by at least one reducer.
        assert calls.count("read_segment") >= 2 + 2

    def test_transport_does_not_change_shuffle_bytes(self):
        """``shuffle_bytes_out/in`` count pickled run bytes, whichever way
        they travelled: spilled and inline runs of one job account alike."""
        job, splits = make_job(3), make_splits(4, width=2000)
        spilled = run_pool(job, splits, start_method="fork")
        inline = run_pool(
            job, splits, start_method="fork", injector=_EVERY_SPILL_FAILS
        )
        assert inline.outputs == spilled.outputs
        for a, b in zip(spilled.records, inline.records):
            assert a.task_id == b.task_id
            assert a.shuffle_bytes_out == b.shuffle_bytes_out
            assert a.shuffle_bytes_in == b.shuffle_bytes_in
        assert all(
            r.shuffle_bytes_out > mmap.PAGESIZE for r in spilled.map_records()
        )
        expected = [
            runtime_mod._spill_map_output(
                job, job.run_map_task(split), None
            ).total_bytes
            for split in splits
        ]
        assert [r.shuffle_bytes_out for r in spilled.map_records()] == expected


def _inline_commit(split_index, num_partitions, fed):
    """A sub-page commit whose partition-p run names its split and p."""
    blobs = tuple(
        pickle.dumps([(p, split_index)]) if p in fed else b""
        for p in range(num_partitions)
    )
    return runtime_mod._RunCommit(
        segment=None, offsets=(), inline=blobs, total_bytes=sum(map(len, blobs))
    )


#: How long the declared-partition pool test's slow map task sleeps.
_SLOW_MAP = 1.0


def _slow_first_mapper(split):
    # Split 0 alone feeds partition 1 and commits last; the rest feed 0.
    if split.index == 0:
        time.sleep(_SLOW_MAP)
        yield 1, time.monotonic()
    else:
        yield 0, split.index


def _stamp_reducer(key, values):
    yield key, time.monotonic(), values


def _stray_mapper(split):
    yield 1, split.index


class TestDeclaredPartitions:
    """Splits that declare their partitions let each reducer start at its
    own feeders' last commit (ShuffleService); a run outside a declaration
    fails the map task under every executor."""

    def _service(self, splits, n_red=3):
        return runtime_mod.ShuffleService(make_job(n_red), splits)

    def test_partition_ready_at_its_last_feeders_commit(self):
        splits = [
            InputSplit(0, None, partitions=(0,)),
            InputSplit(1, None, partitions=(0, 1)),
            InputSplit(2, None, partitions=(1,)),
        ]
        service = self._service(splits)
        assert service.commit(1, _inline_commit(1, 3, (0, 1)), 1) == []
        assert service.commit(0, _inline_commit(0, 3, (0,)), 1) == [0]
        # Partition 2 is declared by no split: ready at the last commit.
        assert service.commit(2, _inline_commit(2, 3, (1,)), 1) == [1, 2]

    def test_undeclared_split_feeds_every_partition(self):
        splits = [InputSplit(0, None), InputSplit(1, None, partitions=(0,))]
        service = self._service(splits)
        assert service.commit(0, _inline_commit(0, 3, (0, 1, 2)), 1) == [1, 2]
        assert service.commit(1, _inline_commit(1, 3, (0,)), 1) == [0]

    def test_locators_come_in_split_index_order(self):
        splits = [
            InputSplit(2, None, partitions=(0,)),
            InputSplit(0, None, partitions=(0, 1)),
            InputSplit(1, None, partitions=(1,)),
        ]
        service = self._service(splits)
        service.commit(2, _inline_commit(2, 3, (0,)), 1)
        service.commit(1, _inline_commit(1, 3, (1,)), 1)
        service.commit(0, _inline_commit(0, 3, (0, 1)), 1)
        runs = [[pickle.loads(loc) for loc in service.locators(p)] for p in range(3)]
        assert runs[0] == [[(0, 0)], [(0, 2)]]
        assert runs[1] == [[(1, 0)], [(1, 1)]]
        assert runs[2] == []

    def test_reduce_starts_before_a_delayed_final_map_commits(self):
        job = MapReduceJob(
            mapper=_slow_first_mapper, reducer=_stamp_reducer, num_reducers=2,
            partitioner=_identity_partitioner, name="declared",
        )
        splits = [InputSplit(0, None, partitions=(1,))] + [
            InputSplit(i, None, partitions=(0,)) for i in range(1, 4)
        ]
        result = run_pool(job, splits, start_method="fork")
        (fast_key, fast_reduced_at, fast_values), = result.outputs[0]
        (slow_key, _, slow_values), = result.outputs[1]
        assert (fast_key, fast_values) == (0, [1, 2, 3])
        assert slow_key == 1
        slow_map_done = slow_values[0]
        assert fast_reduced_at < slow_map_done

    def test_undeclared_partitions_get_empty_reduces(self):
        job = MapReduceJob(
            mapper=_mod4_mapper, reducer=_sum_reducer, num_reducers=4,
            partitioner=_identity_partitioner, name="narrow",
        )
        splits = [
            InputSplit(i, [4 * j + i % 2 for j in range(5)], partitions=(i % 2,))
            for i in range(4)
        ]
        serial = SerialExecutor().run(job, splits)
        assert serial.outputs[2:] == [[], []]
        assert run_pool(job, splits).outputs == serial.outputs

    def test_stray_run_raises_under_serial(self):
        job = MapReduceJob(
            mapper=_stray_mapper, reducer=_sum_reducer, num_reducers=2,
            partitioner=_identity_partitioner, name="stray",
        )
        splits = [InputSplit(i, None, partitions=(0,)) for i in range(3)]
        with pytest.raises(UndeclaredPartitionError, match=r"partition\(s\) \[1\]"):
            SerialExecutor().run(job, splits)

    def test_stray_run_raises_under_worker_pool(self):
        job = MapReduceJob(
            mapper=_stray_mapper, reducer=_sum_reducer, num_reducers=2,
            partitioner=_identity_partitioner, name="stray",
        )
        splits = [InputSplit(i, None, partitions=(0,)) for i in range(3)]
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            with pytest.raises(RuntimeError, match="UndeclaredPartitionError") as info:
                run_pool(job, splits, retry=RetryPolicy(max_attempts=1))
        # The pool's own attempt failed on the guard, not on anything else.
        cause = info.value.__cause__
        assert isinstance(cause, TaskFailedError) and cause.phase == "map"
        assert "UndeclaredPartitionError" in str(cause)


class TestResolveExecutor:
    def test_names(self):
        assert resolve_executor(None).kind == "serial"
        assert resolve_executor("serial").kind == "serial"
        assert resolve_executor("processes", 2).max_workers == 2
        assert set(EXECUTOR_KINDS) == {"serial", "processes"}

    def test_processes_is_a_lazy_worker_pool(self):
        pool = resolve_executor("processes", 2)
        assert isinstance(pool, WorkerPool)
        assert not pool.started  # no worker starts before the first run

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_executor("gpu")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_executor(42)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestOneShotLifetime:
    """A pool built for one job and shut down on the way out leaves no
    worker behind, whether the job ran on the pool or fell back."""

    def test_one_job_leaves_no_worker(self, start_method):
        before = set(multiprocessing.active_children())
        with WorkerPool(max_workers=2, start_method=start_method) as pool:
            result = pool.run(make_job(), make_splits())
        assert dict(result.flat_outputs()) == expected_totals()
        assert all(r.executor == "processes" for r in result.records)
        assert set(multiprocessing.active_children()) - before == set()

    def test_unpicklable_job_still_falls_back(self, start_method):
        job = MapReduceJob(
            mapper=lambda split: ((x % 5, x) for x in split.payload),
            reducer=_sum_reducer,
            num_reducers=2,
            name="closure",
        )
        before = set(multiprocessing.active_children())
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            with WorkerPool(max_workers=2, start_method=start_method) as pool:
                result = pool.run(job, make_splits())
        assert dict(result.flat_outputs()) == expected_totals()
        assert all(r.executor == "serial" for r in result.records)
        assert set(multiprocessing.active_children()) - before == set()


class TestTaskRecordScaling:
    def test_negative_duration_rejected(self):
        from repro.mapreduce.types import TaskRecord

        with pytest.raises(ValueError):
            TaskRecord(task_id="x", kind=TaskKind.MAP, duration=-1.0)
