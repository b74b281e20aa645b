"""Tests for executors: correctness, determinism, task records."""

import dataclasses
import functools
import mmap
import multiprocessing
import os
import pickle
import threading
import warnings

import pytest

from repro.mapreduce import runtime as runtime_mod
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.faults import RetryPolicy
from repro.mapreduce.job import MapReduceJob
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
    return sum(values)


def _mod4_mapper(split):
    for x in split.payload:
        yield x % 4, x


def _log_segment_calls(monkeypatch, path):
    """Make write/read_segment append their name and caller's pid to ``path``.

    Worker processes forked after this call inherit the patch; appends
    from several processes to one ``O_APPEND`` file do not interleave.
    """
    for fn_name in ("write_segment", "read_segment"):
        original = getattr(shm_mod, fn_name)

        def logged(*args, _original=original, _fn_name=fn_name, **kwargs):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{_fn_name} {os.getpid()}\n".encode())
            finally:
                os.close(fd)
            return _original(*args, **kwargs)

        monkeypatch.setattr(shm_mod, fn_name, logged)


def _padded_mapper(padding, split):
    # ``padding`` rides in the job pickle, pushing the blob past one page.
    for x in split.payload:
        yield x % 5, x


def _pid_reducer(key, values):
    return os.getpid()


def _raising_reducer(key, values):
    raise KeyError(f"reducer refuses key {key}")


def make_job():
    return MapReduceJob(mapper=_mod5_mapper, reducer=_sum_reducer, name="t")


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


def expected_totals(n=6, width=10):
    expected = {}
    for x in range(n * width):
        expected[x % 5] = expected.get(x % 5, 0) + x
    return expected


class TestSerialExecutor:
    def test_outputs_correct(self):
        result = SerialExecutor().run(make_job(), make_splits())
        assert dict(result.outputs) == expected_totals()

    def test_task_records(self):
        result = SerialExecutor().run(make_job(), make_splits(4))
        assert len(result.map_records()) == 4
        assert len(result.reduce_records()) == 5  # one per key
        assert all(r.duration >= 0 for r in result.records)

    def test_task_ids_unique(self):
        result = SerialExecutor().run(make_job(), make_splits())
        ids = [r.task_id for r in result.records]
        assert len(set(ids)) == len(ids)

    def test_empty_splits(self):
        result = SerialExecutor().run(make_job(), [])
        assert result.outputs == []
        assert result.reduce_records() == []  # no key, no reduce

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
        job = make_job()
        splits = make_splits(8)
        serial = SerialExecutor().run(job, splits)
        proc = run_pool(job, splits)
        assert serial.outputs == proc.outputs

    def test_records_tagged(self):
        result = run_pool(make_job(), make_splits(4))
        assert len(result.map_records()) == 4
        assert len(result.reduce_records()) == 5
        assert all(r.executor == "processes" for r in result.records)
        assert not any(r.simulator_safe for r in result.records)

    def test_deterministic_record_order(self):
        """Map records come back in split order, reduce in key order,
        regardless of which worker ran what."""
        result = run_pool(make_job(), make_splits(6))
        assert [r.task_id for r in result.map_records()] == [
            f"t/map/{i:05d}" for i in range(6)
        ]
        assert [r.task_id for r in result.reduce_records()] == [
            f"t/reduce/{i:05d}" for i in range(5)
        ]

    def test_unpicklable_job_falls_back_to_serial(self):
        """A mapper that cannot be pickled cannot reach a worker."""
        captured = []

        def closure_mapper(split):  # local function: not picklable
            for x in split.payload:
                captured.append(x)
                yield x % 5, x

        job = MapReduceJob(mapper=closure_mapper, reducer=_sum_reducer, name="c")
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = run_pool(job, make_splits(3))
        assert dict(result.outputs) == expected_totals(3)
        # The fallback truthfully tags its records as serial measurements.
        assert all(r.executor == "serial" for r in result.records)
        assert captured  # the closure really ran, in this process

    def test_empty_splits(self):
        result = run_pool(make_job(), [])
        assert result.outputs == []

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)

    def test_job_travels_by_the_page_rule(self, monkeypatch):
        """Dispatch ships a job ref, never the job object: the mapper's
        blob of at most one page rides inline in each task item, a larger
        one goes once through a segment and the item carries only its name."""
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
            reducer=_sum_reducer, name="t",
        )
        assert len(pickle.dumps(small.mapper)) <= mmap.PAGESIZE < len(
            pickle.dumps(large.mapper)
        )
        for job in (small, large):
            submitted.clear()
            result = run_pool(job, make_splits(3))
            assert dict(result.outputs) == expected_totals(3)
            refs = {item[0] for item in submitted}
            assert len(submitted) == 3 and len(refs) == 1  # map tasks only
            (ref,) = refs
            assert not any(isinstance(part, MapReduceJob) for part in submitted[0])
            if job is small:
                assert ref.segment is None and ref.inline == pickle.dumps(small.mapper)
            else:
                assert ref.segment is not None and ref.inline is None
                assert ref.size == len(pickle.dumps(large.mapper))



class TestReducePerKey:
    """The driver calls the reducer once per key, in sorted key order, and
    times each call as one reduce record."""

    def test_keys_sorted_one_record_per_output(self):
        splits = [
            InputSplit(index=0, payload=[9, 3, 7]),
            InputSplit(index=1, payload=[1, 8, 13]),
        ]
        result = SerialExecutor().run(make_job(), splits)
        keys = [key for key, _ in result.outputs]
        assert keys == sorted(keys) == [1, 2, 3, 4]
        assert result.outputs == [(1, 1), (2, 7), (3, 3 + 8 + 13), (4, 9)]
        reduces = result.reduce_records()
        assert len(reduces) == len(result.outputs)
        assert [r.task_id for r in reduces] == [f"t/reduce/{i:05d}" for i in range(4)]
        assert [r.input_records for r in reduces] == [1, 1, 3, 1]

    def test_no_map_output_gives_no_reduce_record(self):
        splits = [InputSplit(index=i, payload=[]) for i in range(3)]
        result = SerialExecutor().run(make_job(), splits)
        assert result.outputs == []
        assert result.reduce_records() == []
        assert len(result.map_records()) == 3


class TestDriverReduce:
    """A pool run's shuffle: the pool runs only map tasks, whose outputs
    return to the driver, which shuffles and reduces as the serial executor
    does."""

    def test_matches_serial(self):
        job = make_job()
        splits = make_splits(8)
        serial = SerialExecutor().run(job, splits)
        pooled = run_pool(job, splits)
        assert pooled.outputs == serial.outputs

    def test_local_closure_reducer_runs_on_the_pool(self):
        """Only the mapper is shipped, so a reducer that cannot be pickled
        still lets the map tasks run on workers, with no fallback."""
        scale = 2

        def closure_reducer(key, values):  # local function: not picklable
            return scale * sum(values)

        job = MapReduceJob(mapper=_mod5_mapper, reducer=closure_reducer, name="c")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a serial fallback warns
            result = run_pool(job, make_splits(3))
        assert dict(result.outputs) == {k: 2 * v for k, v in expected_totals(3).items()}
        assert all(r.executor == "processes" for r in result.records)

    def test_record_order_and_shuffle_bytes(self):
        """Records stay in split/key order whatever the completion order,
        and each map record counts the pickled output it returned."""
        job, splits = make_job(), make_splits(6)
        result = run_pool(job, splits)
        assert [r.task_id for r in result.map_records()] == [
            f"t/map/{i:05d}" for i in range(6)
        ]
        assert [r.task_id for r in result.reduce_records()] == [
            f"t/reduce/{i:05d}" for i in range(5)
        ]
        assert [r.shuffle_bytes_out for r in result.map_records()] == [
            len(pickle.dumps(list(job.mapper(s)), protocol=pickle.HIGHEST_PROTOCOL))
            for s in splits
        ]
        assert all(r.shuffle_bytes_out == 0 for r in result.reduce_records())

    @pytest.mark.parametrize("num_splits", [1, 4])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_reducers_run_in_the_driver(self, start_method, num_splits):
        job = MapReduceJob(mapper=_mod5_mapper, reducer=_pid_reducer, name="pid")
        result = run_pool(job, make_splits(num_splits), start_method=start_method)
        assert dict(result.outputs) == {k: os.getpid() for k in range(5)}
        assert len(result.reduce_records()) == 5
        assert all(r.executor == "processes" for r in result.records)

    @pytest.mark.parametrize("lifecycle", ["cold", "warm"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_reducer_exception_propagates_without_fallback(
        self, start_method, lifecycle
    ):
        job = MapReduceJob(
            mapper=_mod5_mapper, reducer=_raising_reducer, name="r"
        )
        with WorkerPool(
            max_workers=2, start_method=start_method, retry=RetryPolicy(max_attempts=3)
        ) as pool:
            if lifecycle == "warm":
                assert dict(pool.run(make_job(), make_splits()).outputs) == (
                    expected_totals()
                )
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a serial fallback warns
                with pytest.raises(KeyError, match="reducer refuses key"):
                    pool.run(job, make_splits(4))
            assert pool.started  # the pool was not discarded
            # ...and still serves the next job on the same workers.
            assert dict(pool.run(make_job(), make_splits()).outputs) == (
                expected_totals()
            )

    def test_reducer_exception_leaves_a_concurrent_job_alone(self):
        """Two jobs share one pool from two threads; one reducer raises.
        The other job completes on the pool, with no fallback."""
        bad = MapReduceJob(
            mapper=_mod5_mapper, reducer=_raising_reducer, name="r"
        )
        outcomes = {}
        with WorkerPool(max_workers=2) as pool:
            pool.prewarm()

            def run(name, job):
                try:
                    outcomes[name] = pool.run(job, make_splits(8))
                except KeyError as exc:
                    outcomes[name] = exc

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                threads = [
                    threading.Thread(target=run, args=("bad", bad)),
                    threading.Thread(target=run, args=("good", make_job())),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            assert pool.started
        assert isinstance(outcomes["bad"], KeyError)
        good = outcomes["good"]
        assert dict(good.outputs) == expected_totals(8)
        assert all(r.executor == "processes" for r in good.records)

    def test_inline_fallback_without_spill_set(self, monkeypatch, tmp_path):
        """When the run's segment owner cannot be created, an above-page
        job blob rides inline — with a warning, exact outputs."""

        def no_anchor():
            raise OSError("injected: no /dev/shm")

        log = tmp_path / "segment_calls"
        _log_segment_calls(monkeypatch, str(log))
        monkeypatch.setattr(shm_mod, "_create_anchor", no_anchor)
        job = MapReduceJob(
            mapper=functools.partial(_padded_mapper, bytes(2 * mmap.PAGESIZE)),
            reducer=_sum_reducer, name="t",
        )
        with pytest.warns(RuntimeWarning, match="shipping inline per task"):
            result = run_pool(job, make_splits(4), start_method="fork")
        assert dict(result.outputs) == expected_totals(4)
        assert all(r.executor == "processes" for r in result.records)
        assert not log.exists() or log.read_text() == ""

    def test_sub_page_job_touches_no_segment(self, monkeypatch, tmp_path):
        """A sub-page job touches no segment, however large its map
        output: outputs return through the result pipe. No worker ever
        writes a segment; only the driver does, for an above-page job blob."""
        log = tmp_path / "segment_calls"
        _log_segment_calls(monkeypatch, str(log))
        large_job = MapReduceJob(
            mapper=functools.partial(_padded_mapper, bytes(2 * mmap.PAGESIZE)),
            reducer=_sum_reducer, name="t",
        )
        for job in (make_job(), large_job):
            result = run_pool(job, make_splits(4, width=2000), start_method="fork")
            assert dict(result.outputs) == expected_totals(4, width=2000)
            assert all(r.shuffle_bytes_out > mmap.PAGESIZE for r in result.map_records())
        calls = [line.split() for line in log.read_text().splitlines()]
        writes = [pid for name, pid in calls if name == "write_segment"]
        assert writes == [str(os.getpid())]  # the large job's blob, by the driver
        assert any(name == "read_segment" for name, _ in calls)


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
        assert dict(result.outputs) == expected_totals()
        assert all(r.executor == "processes" for r in result.records)
        assert set(multiprocessing.active_children()) - before == set()

    def test_unpicklable_job_still_falls_back(self, start_method):
        job = MapReduceJob(
            mapper=lambda split: ((x % 5, x) for x in split.payload),
            reducer=_sum_reducer,
            name="closure",
        )
        before = set(multiprocessing.active_children())
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            with WorkerPool(max_workers=2, start_method=start_method) as pool:
                result = pool.run(job, make_splits())
        assert dict(result.outputs) == expected_totals()
        assert all(r.executor == "serial" for r in result.records)
        assert set(multiprocessing.active_children()) - before == set()


class TestTaskRecordScaling:
    def test_input_split_is_index_and_payload(self):
        assert [f.name for f in dataclasses.fields(InputSplit)] == ["index", "payload"]
        assert InputSplit(3, ("frag", 1)) == InputSplit(index=3, payload=("frag", 1))

    def test_negative_split_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InputSplit(-1, None)

    def test_negative_duration_rejected(self):
        from repro.mapreduce.types import TaskRecord

        with pytest.raises(ValueError):
            TaskRecord(task_id="x", kind=TaskKind.MAP, duration=-1.0)
