"""Executor-equivalence properties: serial == process.

The paper's 100%-accuracy claim must survive the executor swap — parallel
backends change *when* work runs, never *what* it produces. These tests push
both executors end to end through ``OrionSearch.run`` (both strands) and
require field-identical output, down to the alignment paths.
"""

import mmap
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orion import OrionSearch
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import SerialExecutor, WorkerPool
from repro.mapreduce.types import InputSplit
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)


def canonical(alignments):
    """Every field of every alignment, with the path as raw bytes — equality
    here is the "byte-identical" bar the executor backends must clear."""
    out = []
    for a in alignments:
        fields = dict(vars(a))
        path = fields.pop("path", None)
        fields["path"] = None if path is None else path.tobytes()
        out.append(tuple(sorted(fields.items())))
    return out


# --------------------------------------------------------------------------- #
# OrionSearch end to end
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def tiny_db():
    return make_database(seed=71, num_sequences=8, mean_length=3000)


@pytest.fixture(scope="module")
def tiny_query(tiny_db):
    query, _ = make_query_with_homologies(
        seed=72, length=20_000, database=tiny_db,
        homologies=[HomologySpec(length=600), HomologySpec(length=400)],
    )
    return query


def run_orion(
    db,
    query,
    executor,
    strands="plus",
    prune_threshold=None,
):
    search = OrionSearch(
        database=db,
        num_shards=4,
        fragment_length=6000,
        strands=strands,
        executor=executor,
        num_workers=2,
        prune_threshold=prune_threshold,
    )
    try:
        return search.run(query)
    finally:
        search.close()


@pytest.mark.parametrize("strands", ["plus", "both"])
class TestOrionExecutorEquivalence:
    def test_processes_equal_serial(self, tiny_db, tiny_query, strands):
        serial = run_orion(tiny_db, tiny_query, "serial", strands)
        proc = run_orion(tiny_db, tiny_query, "processes", strands)
        assert canonical(proc.alignments) == canonical(serial.alignments)
        assert proc.executor_kind == "processes"
        # Aggregation stats come back from the reducer beside the alignments,
        # so they must match too.
        assert proc.merged_pairs == serial.merged_pairs
        assert proc.dropped_partials == serial.dropped_partials

    def test_processes_shm_equal_serial(self, tiny_db, tiny_query, strands):
        """The zero-copy shared-database plane must be invisible in the
        output: serial == processes+shm, field-identical."""
        pytest.importorskip("multiprocessing.shared_memory")
        serial = run_orion(tiny_db, tiny_query, "serial", strands)
        shm = run_orion(tiny_db, tiny_query, "processes", strands)
        assert shm.plane_created + shm.plane_attached == 1
        assert shm.plane_fallback == 0
        assert canonical(shm.alignments) == canonical(serial.alignments)
        assert shm.executor_kind == "processes"
        assert shm.merged_pairs == serial.merged_pairs


@pytest.mark.parametrize("strands", ["plus", "both"])
class TestPruningEquivalence:
    """Threshold-0 pruning probes every (fragment × shard) pair but keeps
    them all — so it must be byte-identical to never probing, on every
    executor and both strands. This is the safety
    rail under ``prune_threshold``: the probe machinery itself cannot
    perturb results; only the keep/skip decision can (gated separately by
    ``benchmarks/bench_pruning.py``)."""

    def test_serial_threshold_zero_identical(self, tiny_db, tiny_query, strands):
        base = run_orion(tiny_db, tiny_query, "serial", strands=strands)
        zero = run_orion(
            tiny_db, tiny_query, "serial", strands=strands, prune_threshold=0.0
        )
        assert canonical(zero.alignments) == canonical(base.alignments)
        assert zero.num_work_units == base.num_work_units
        assert zero.pruned_map_tasks == 0
        assert zero.shards_pruned == 0
        assert len(base.alignments) > 0

    def test_processes_shm_threshold_zero_identical(
        self, tiny_db, tiny_query, strands
    ):
        """Shared plane on: the sketch index reads the plane's sorted k-mer
        keys — results still identical."""
        pytest.importorskip("multiprocessing.shared_memory")
        base = run_orion(tiny_db, tiny_query, "serial", strands=strands)
        zero = run_orion(
            tiny_db,
            tiny_query,
            "processes",
            strands=strands,
            prune_threshold=0.0,
        )
        assert canonical(zero.alignments) == canonical(base.alignments)
        assert zero.pruned_map_tasks == 0


def test_serial_records_simulator_safe_processes_not(tiny_db, tiny_query):
    serial = run_orion(tiny_db, tiny_query, "serial")
    assert serial.executor_kind == "serial"
    assert serial.mapreduce_wall_seconds > 0
    proc = run_orion(tiny_db, tiny_query, "processes")
    assert proc.executor_kind == "processes"


# --------------------------------------------------------------------------- #
# a worker-pool job == the serial oracle
# --------------------------------------------------------------------------- #


def _orionspill_segments():
    """Live pool-run segments: anchors and job blobs (Linux probe; empty elsewhere)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("orionspill_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# Module-level word-count job pieces: picklable under fork and spawn alike.
_WORDS = ("orion", "blast", "shuffle", "spill", "reduce", "merge", "seed", "hit")


def _wc_mapper(split):
    for line in split.payload:
        for word in line.split():
            yield word, 1


def _count_reducer(key, values):
    return sum(values)


def _word_splits(n=6, lines=8):
    return [
        InputSplit(
            index=i,
            payload=[
                " ".join(_WORDS[(i + j + k) % len(_WORDS)] for k in range(5))
                for j in range(lines)
            ],
        )
        for i in range(n)
    ]


#: Lines per split past which a word-count map output pickles to more
#: than one page (asserted by ``test_pool_equals_serial``).
_SPILLING_LINES = 400


def _wc_job(reducer=_count_reducer):
    return MapReduceJob(mapper=_wc_mapper, reducer=reducer, name="wc")


class TestPoolMapEquivalence:
    """Running the map tasks on workers changes *where* they run, never what
    the driver's shuffle and reducers produce — and leaves no segment behind."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("lines", [8, _SPILLING_LINES])
    def test_pool_equals_serial(self, start_method, lines):
        before = _orionspill_segments()
        splits = _word_splits(lines=lines)
        serial = SerialExecutor().run(_wc_job(), splits)
        with WorkerPool(max_workers=2, start_method=start_method) as pool:
            pooled = pool.run(_wc_job(), splits)
        assert pooled.outputs == serial.outputs
        assert all(r.executor == "processes" for r in pooled.records)
        # Both sizes are covered: short outputs pickle within a page, long
        # ones above it, and all of them return through the result pipe.
        above_page = [
            r.shuffle_bytes_out > mmap.PAGESIZE for r in pooled.map_records()
        ]
        assert all(above_page) == (lines == _SPILLING_LINES)
        assert any(above_page) == all(above_page)
        assert _orionspill_segments() - before == set()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_pool_repeat_runs(self, start_method):
        before = _orionspill_segments()
        serial = SerialExecutor().run(_wc_job(), _word_splits())
        with WorkerPool(max_workers=2, start_method=start_method) as pool:
            r1 = pool.run(_wc_job(), _word_splits())
            r2 = pool.run(_wc_job(), _word_splits())
        assert r1.outputs == r2.outputs == serial.outputs
        assert all(r.executor == "processes" for r in r1.records)
        assert _orionspill_segments() - before == set()


def _straddle_mapper(split):
    """``payload`` records: ~6 pickled bytes each, so the drawn counts put a
    task's output well under or well over one page."""
    for i in range(split.payload):
        yield i % 7, i


def _job_summary(result):
    """A ``JobResult`` field by field, leaving out what only timing and the
    executor decide (durations, executor tags, attempt trails, byte counts):
    outputs, and each record's position, id, kind and record counts."""
    return (
        result.outputs,
        [
            (i, r.task_id, r.kind, r.input_records, r.output_records)
            for i, r in enumerate(result.records)
        ],
    )


_SUB_PAGE = st.integers(min_value=0, max_value=40)
_ABOVE_PAGE = st.integers(min_value=1500, max_value=3000)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_outputs_straddling_a_page_equal_serial(start_method):
    """Map outputs under and over a page: the pool run yields the serial
    ``JobResult`` field by field, and each map record counts the pickled
    output its task returned."""
    before = _orionspill_segments()
    with WorkerPool(max_workers=2, start_method=start_method) as pool:

        @given(
            st.lists(st.one_of(_SUB_PAGE, _ABOVE_PAGE), max_size=4),
            _SUB_PAGE, _ABOVE_PAGE, st.randoms(use_true_random=False),
        )
        @settings(max_examples=12, deadline=None)
        def check(sizes, small, large, rng):
            sizes = sizes + [small, large]
            rng.shuffle(sizes)
            job = MapReduceJob(
                mapper=_straddle_mapper, reducer=_count_reducer, name="s",
            )
            splits = [InputSplit(index=i, payload=n) for i, n in enumerate(sizes)]
            serial = SerialExecutor().run(job, splits)
            pooled = pool.run(job, splits)
            assert _job_summary(pooled) == _job_summary(serial)
            assert len(pooled.records) == len(splits) + len(pooled.outputs)
            assert all(r.executor == "processes" for r in pooled.records)
            out = [r.shuffle_bytes_out for r in pooled.map_records()]
            assert out == [
                len(pickle.dumps(list(job.mapper(s)), protocol=pickle.HIGHEST_PROTOCOL))
                for s in splits
            ]
            assert [b > mmap.PAGESIZE for b in out] == [n >= 1500 for n in sizes]
            assert all(r.shuffle_bytes_out == 0 for r in pooled.reduce_records())

        check()
    assert _orionspill_segments() - before == set()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_concurrent_pool_jobs_equal_serial(start_method):
    """Jobs run from several threads on one pool each reduce in their own
    driver thread: every ``JobResult`` equals its serial one field by field."""
    import threading

    jobs = [
        MapReduceJob(mapper=_wc_mapper, reducer=_count_reducer, name=f"wc{n}")
        for n in (1, 3, 5)
    ]
    splits = _word_splits(n=8)
    results = {}
    before = _orionspill_segments()
    with WorkerPool(max_workers=2, start_method=start_method) as pool:
        pool.prewarm()

        def run(job):
            results[job.name] = pool.run(job, splits)

        threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for job in jobs:
        assert _job_summary(results[job.name]) == _job_summary(
            SerialExecutor().run(job, splits)
        )
        assert all(r.executor == "processes" for r in results[job.name].records)
    assert _orionspill_segments() - before == set()


def test_orion_pool_equals_serial(tiny_db, tiny_query):
    """End to end: OrionSearch on the worker pool is field-identical to the
    serial run, and sweeps its run's segments."""
    before = _orionspill_segments()
    serial = run_orion(tiny_db, tiny_query, "serial")
    pooled = run_orion(tiny_db, tiny_query, "processes")
    assert canonical(pooled.alignments) == canonical(serial.alignments)
    assert pooled.executor_kind == "processes"
    assert pooled.merged_pairs == serial.merged_pairs
    assert pooled.dropped_partials == serial.dropped_partials
    assert _orionspill_segments() - before == set()


def test_orion_service_concurrent_equals_serial(tiny_db, tiny_query):
    """The always-on service path: concurrent admissions interleaving on
    one shared worker pool stay field-identical to the serial run, query
    by query, and the drained shutdown sweeps every run segment."""
    import asyncio

    from repro.service import OrionService, ServiceConfig

    before = _orionspill_segments()
    serial = run_orion(tiny_db, tiny_query, "serial")
    search = OrionSearch(
        database=tiny_db, num_shards=4, fragment_length=6000,
        executor="processes", num_workers=2,
    )
    service = OrionService(search, ServiceConfig(max_inflight=3, queue_depth=8))

    async def main():
        async with service:
            return await asyncio.gather(
                *(service.submit(tiny_query) for _ in range(3))
            )

    results = asyncio.run(main())
    assert len(results) == 3
    for result in results:
        assert canonical(result.alignments) == canonical(serial.alignments)
        assert result.executor_kind == "processes"
    assert service.stats.completed == 3
    assert _orionspill_segments() - before == set()
