"""OrionService: overload shedding, breaker integration, equivalence, drain.

No pytest-asyncio in the toolchain — each test drives its own event loop
with ``asyncio.run``. Fake searches, passed in as the service's search, make
the shedding and breaker scenarios deterministic; the equivalence and shutdown
tests run the real ``OrionSearch`` over a process pool.
"""

import asyncio
import math
import os
import random
import sys
import threading

import pytest

from repro.core.orion import EmptyQueryError, OrionSearch
from repro.core.results import OrionResult
from repro.sequence.generator import make_database
from repro.sequence.records import SequenceRecord
from repro.service import (
    CircuitOpenError,
    LatencyHistogram,
    OrionService,
    QueueFullError,
    ServiceClosedError,
    ServiceConfig,
)
from tests.service.test_breaker import FakeClock


def _canonical(alignments):
    out = []
    for a in alignments:
        fields = dict(vars(a))
        path = fields.pop("path", None)
        fields["path"] = None if path is None else path.tobytes()
        out.append(tuple(sorted(fields.items())))
    return out


def _orion_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("orion")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class _FakeQuery:
    seq_id = "fake"

    def __len__(self):
        return 1


def _stub_result(query):
    """The empty result a fake search serves for ``query``."""
    return OrionResult(
        query_id=query.seq_id, alignments=[], map_records=[], reduce_seconds=[],
        sort_seconds=0.0, fragment_length=len(query), overlap=0,
        num_fragments=1, num_shards=1,
    )


class _BlockingSearch:
    """run() parks on an event — deterministic queue-occupancy control."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.runs = 0
        self.closed = False

    def run(self, query):
        self.runs += 1
        self.started.set()
        assert self.release.wait(timeout=30), "test never released the search"
        return _stub_result(query)

    def warmup(self):
        pass

    def close(self):
        self.closed = True


class _FlakySearch:
    """Fails its first ``fail_first`` runs, then serves normally."""

    def __init__(self, fail_first):
        self.fail_first = fail_first
        self.runs = 0
        self.closed = False

    def run(self, query):
        self.runs += 1
        if self.runs <= self.fail_first:
            raise RuntimeError("backend exploded")
        return _stub_result(query)

    def warmup(self):
        pass

    def close(self):
        self.closed = True


class TestOverloadShedding:
    def test_full_queue_sheds_typed_error_without_blocking(self):
        """A full queue rejects instantly with QueueFullError — the event
        loop never blocks — and every *admitted* query still completes."""

        async def main():
            fake = _BlockingSearch()
            config = ServiceConfig(max_inflight=1, queue_depth=1)
            async with OrionService(fake, config) as service:
                loop = asyncio.get_running_loop()
                first = asyncio.create_task(service.submit(_FakeQuery()))
                # Let the single worker pull `first` off the queue.
                await loop.run_in_executor(None, fake.started.wait, 10)
                second = asyncio.create_task(service.submit(_FakeQuery()))
                await asyncio.sleep(0)  # run `second` up to its await: queue now full
                with pytest.raises(QueueFullError):
                    # wait_for bounds the test; the rejection must be immediate.
                    await asyncio.wait_for(
                        service.submit(_FakeQuery()), timeout=5
                    )
                assert service.stats.rejected_queue_full == 1
                fake.release.set()
                results = await asyncio.gather(first, second)
            assert [r.query_id for r in results] == ["fake", "fake"]  # no admitted work shed
            assert fake.runs == 2
            assert fake.closed

        asyncio.run(main())

    def test_rejection_does_not_consume_breaker_probes(self):
        """Queue-full shedding happens before the breaker is consulted, so
        a shed query can never burn a half-open probe slot."""

        async def main():
            fake = _BlockingSearch()
            config = ServiceConfig(max_inflight=1, queue_depth=1)
            async with OrionService(fake, config) as service:
                loop = asyncio.get_running_loop()
                first = asyncio.create_task(service.submit(_FakeQuery()))
                await loop.run_in_executor(None, fake.started.wait, 10)
                second = asyncio.create_task(service.submit(_FakeQuery()))
                await asyncio.sleep(0)
                with pytest.raises(QueueFullError):
                    await service.submit(_FakeQuery())
                assert service.breaker.state == "closed"
                assert service.breaker.allow()  # untouched by the shed
                fake.release.set()
                await asyncio.gather(first, second)

        asyncio.run(main())


class TestBreakerIntegration:
    def test_breaker_opens_sheds_and_recovers(self):
        """The acceptance scenario: consecutive failures open the breaker,
        load is shed with a typed error, and after the reset timeout a
        probe success returns the service to serving."""

        clock = FakeClock()
        fake = _FlakySearch(fail_first=2)
        config = ServiceConfig(
            max_inflight=1,
            queue_depth=4,
            breaker_failures=2,
            breaker_reset_seconds=30.0,
        )

        async def main():
            async with OrionService(fake, config, clock=clock) as service:
                for _ in range(2):
                    with pytest.raises(RuntimeError, match="backend exploded"):
                        await service.submit(_FakeQuery())
                assert service.breaker.state == "open"
                with pytest.raises(CircuitOpenError):
                    await service.submit(_FakeQuery())
                assert service.stats.rejected_circuit_open == 1
                assert service.stats.failed == 2
                clock.advance(30.0)
                result = await service.submit(_FakeQuery())  # probe
                assert result.query_id == "fake"
                assert service.breaker.state == "closed"
                result = await service.submit(_FakeQuery())
                assert result.query_id == "fake"
                assert service.stats.completed == 2

        asyncio.run(main())

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        fake = _FlakySearch(fail_first=3)  # the probe fails too
        config = ServiceConfig(
            max_inflight=1,
            queue_depth=4,
            breaker_failures=2,
            breaker_reset_seconds=30.0,
        )

        async def main():
            async with OrionService(fake, config, clock=clock) as service:
                for _ in range(2):
                    with pytest.raises(RuntimeError):
                        await service.submit(_FakeQuery())
                clock.advance(30.0)
                with pytest.raises(RuntimeError):  # the failing probe
                    await service.submit(_FakeQuery())
                assert service.breaker.state == "open"
                with pytest.raises(CircuitOpenError):
                    await service.submit(_FakeQuery())
                clock.advance(30.0)
                result = await service.submit(_FakeQuery())
                assert result.query_id == "fake"

        asyncio.run(main())


class TestLatencyHistogram:
    def test_memory_flat_and_quantiles_within_one_bucket(self):
        """100 k completions: the record does not grow, and p50/p90 land
        within one bucket (a factor 2**(1/8)) of the exact order statistics."""
        hist = LatencyHistogram()
        buckets = len(hist._counts)
        size = sys.getsizeof(hist._counts)
        rng = random.Random(2014)
        samples = [rng.lognormvariate(-2.0, 0.8) for _ in range(100_000)]
        for seconds in samples:
            hist.record(seconds)
        assert len(hist) == 100_000
        assert len(hist._counts) == buckets
        assert sys.getsizeof(hist._counts) == size
        assert set(vars(hist)) == {"_counts", "_total", "_min", "_max"}

        samples.sort()
        width = 2.0 ** (1.0 / LatencyHistogram.BUCKETS_PER_OCTAVE)
        for q in (0.5, 0.9, 0.99):
            exact = samples[math.ceil(q * len(samples)) - 1]
            assert exact / width <= hist.quantile(q) <= exact * width
        # Clamped to the exact extremes: never outside what was observed.
        assert samples[0] <= hist.quantile(0.0) <= samples[0] * width
        assert samples[-1] / width <= hist.quantile(1.0) <= samples[-1]

    def test_edges(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) == 0.0  # nothing recorded yet
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        # Out-of-range values are counted in the end buckets and read back
        # as those buckets: ~1 µs and ~68 min.
        for seconds in (0.0, 1e-9, 1e6):
            hist.record(seconds)
        assert len(hist) == 3
        assert 0.0 <= hist.quantile(0.5) <= 2.0 ** (LatencyHistogram.MIN_EXPONENT + 1)
        assert 2.0 ** (LatencyHistogram.MAX_EXPONENT - 1) <= hist.quantile(1.0) <= 1e6
        one = LatencyHistogram()
        one.record(0.25)
        assert one.quantile(0.0) == one.quantile(0.5) == one.quantile(1.0) == 0.25


class TestAdmissionValidation:
    def test_submit_after_close_raises(self):
        async def main():
            fake = _FlakySearch(fail_first=0)
            service = OrionService(fake)
            async with service:
                pass
            assert service.state == "closed"
            with pytest.raises(ServiceClosedError):
                await service.submit(_FakeQuery())
            with pytest.raises(ServiceClosedError):
                await service.start()  # a drained service cannot restart

        asyncio.run(main())

    def test_empty_queries_never_reach_the_breaker(self):
        """Regression: five empty submissions used to die in
        ``effective_lengths``, count as backend failures and open the
        breaker, so the next *valid* query got ``CircuitOpenError``."""
        db = make_database(seed=31, num_sequences=3, mean_length=1200, name="emptyq")
        good = db.records[0].slice(100, 700, seq_id="good")
        empty = SequenceRecord(seq_id="nothing", codes=good.codes[:0])
        search = OrionSearch(db, num_shards=2, fragment_length=400)
        expected = _canonical(search.run(good).alignments)
        assert expected

        async def main():
            config = ServiceConfig(max_inflight=1, queue_depth=2, breaker_failures=5)
            async with OrionService(search, config) as service:
                for _ in range(5):
                    with pytest.raises(EmptyQueryError, match="nothing"):
                        await service.submit(empty)
                result = await service.submit(good)
                return result, service.stats, service.breaker

        result, stats, breaker = asyncio.run(main())
        assert _canonical(result.alignments) == expected
        assert stats.rejected_empty_query == 5
        assert (stats.submitted, stats.completed, stats.failed) == (1, 1, 0)
        assert stats.rejected == 0
        assert breaker.state == "closed" and breaker.times_opened == 0

    def test_prepare_names_the_empty_query(self):
        db = make_database(seed=31, num_sequences=2, mean_length=600, name="emptyq")
        empty = SequenceRecord(seq_id="nothing", codes=db.records[0].codes[:0])
        with pytest.raises(ValueError, match="'nothing' is empty") as caught:
            OrionSearch(db, num_shards=1).prepare(empty)
        assert isinstance(caught.value, EmptyQueryError)
        assert caught.value.query_id == "nothing"

    def test_config_validated(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_depth=0)


class TestServiceEquivalence:
    """Concurrent, duplicate-heavy admission over one process pool must be
    byte-identical to serial ``run()`` per query — and clean up /dev/shm."""

    @pytest.fixture(scope="class")
    def small_db(self):
        return make_database(seed=217, num_sequences=6, mean_length=2500, name="svcdb")

    @pytest.fixture(scope="class")
    def queries(self, small_db):
        out = []
        for i in range(6):
            rec = small_db.records[i % 3]  # duplicate-heavy: repeated slices
            n = min(1500, len(rec))
            # Same seq_id on purpose: the service, unlike run_many, serves
            # duplicate ids — each submission gets its own result.
            out.append(rec.slice(0, n, seq_id=f"dup{i % 3}"))
        return out

    def test_concurrent_results_match_serial_and_shutdown_is_clean(
        self, small_db, queries
    ):
        pytest.importorskip("multiprocessing.shared_memory")
        before = _orion_segments()
        with OrionSearch(database=small_db, num_shards=2) as serial_search:
            expected = {q.seq_id: serial_search.run(q) for q in {q.seq_id: q for q in queries}.values()}

        search = OrionSearch(
            database=small_db, num_shards=2, executor="processes", num_workers=2
        )
        service = OrionService(
            search, ServiceConfig(max_inflight=3, queue_depth=8)
        )

        async def main():
            async with service:
                return await asyncio.gather(*(service.submit(q) for q in queries))

        results = asyncio.run(main())
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert result.query_id == query.seq_id
            assert _canonical(result.alignments) == _canonical(
                expected[query.seq_id].alignments
            )
        assert service.stats.completed == len(queries)
        assert service.stats.rejected == 0
        # Drained shutdown released the plane and the pool: no new segments.
        assert service.state == "closed"
        assert not search.executor.started and search._lease is None
        assert _orion_segments() - before == set()

    def test_start_prewarms_plane_and_workers(self, small_db):
        """``start()`` publishes the plane and forks every pool worker from
        its quiescent moment. If the first concurrent queries forked them
        instead, a forked child could inherit a lock a sibling query thread
        held at that instant and deadlock before its first task (observed
        as a rare wedge of this suite before the warmup existed)."""
        pytest.importorskip("multiprocessing.shared_memory")
        search = OrionSearch(
            database=small_db, num_shards=2, executor="processes", num_workers=2
        )
        service = OrionService(search, ServiceConfig(max_inflight=2))

        async def main():
            async with service:
                assert search._lease is not None
                inner = search.executor._pool  # the ProcessPoolExecutor exists...
                assert inner is not None
                assert len(inner._processes) == 2  # ...with live workers

        asyncio.run(main())
        assert not search.executor.started and search._lease is None

    def test_drain_waits_for_inflight_work(self):
        async def main():
            fake = _BlockingSearch()
            service = OrionService(fake, ServiceConfig(max_inflight=1, queue_depth=2))
            await service.start()
            loop = asyncio.get_running_loop()
            pending = asyncio.create_task(service.submit(_FakeQuery()))
            await loop.run_in_executor(None, fake.started.wait, 10)
            closer = asyncio.create_task(service.aclose())
            await asyncio.sleep(0)
            assert service.state in ("draining", "running")
            assert not closer.done()  # close waits for the admitted query
            fake.release.set()
            await closer
            result = await pending
            assert result.query_id == "fake"
            assert service.state == "closed"
            assert fake.closed

        asyncio.run(main())

    def test_aclose_returns_once_workers_are_cancelled(self):
        """``asyncio.run`` cancels every task when an exception escapes
        its loop, the service's workers included. ``aclose()`` must still
        return, fail each admission no worker took, and close the search."""

        async def main():
            fake = _BlockingSearch()
            service = OrionService(fake, ServiceConfig(max_inflight=1, queue_depth=8))
            await service.start()
            loop = asyncio.get_running_loop()
            pending = [
                asyncio.create_task(service.submit(_FakeQuery())) for _ in range(6)
            ]
            await loop.run_in_executor(None, fake.started.wait, 10)
            for worker in service._workers:
                worker.cancel()
            fake.release.set()
            await asyncio.wait_for(service.aclose(), 5)
            outcomes = await asyncio.gather(*pending, return_exceptions=True)
            assert all(isinstance(o, ServiceClosedError) for o in outcomes)
            assert fake.runs == 1
            assert service.state == "closed"
            assert fake.closed

        asyncio.run(main())


class TestPruningService:
    """Service-level shard pruning: config override + stats accumulation."""

    @pytest.fixture(scope="class")
    def prune_db(self):
        return make_database(seed=311, num_sequences=16, mean_length=600, name="prndb")

    @pytest.fixture(scope="class")
    def prune_queries(self, prune_db):
        from repro.sequence.generator import HomologySpec, make_query_with_homologies
        from repro.sequence.mutate import MutationModel

        out = []
        for i in range(3):
            q, _ = make_query_with_homologies(
                400 + i,
                length=4000,
                database=prune_db,
                homologies=[
                    HomologySpec(length=400, model=MutationModel.close_homolog())
                ],
                seq_id=f"pq{i}",
            )
            out.append(q)
        return out

    def test_served_search_prunes_as_built(self, prune_db):
        search = OrionSearch(
            database=prune_db, num_shards=8, fragment_length=2000,
            prune_threshold=0.02,
        )
        service = OrionService(search, ServiceConfig(max_inflight=1))

        async def main():
            async with service:
                assert search.prune_threshold == 0.02
                # warmup built the sketch index at the quiescent moment
                assert search._sketch_index is not None

        asyncio.run(main())

    def test_stats_accumulate_and_results_match_direct_run(
        self, prune_db, prune_queries
    ):
        threshold = 0.02
        with OrionSearch(
            database=prune_db,
            num_shards=8,
            fragment_length=2000,
            prune_threshold=threshold,
        ) as direct:
            expected = {q.seq_id: direct.run(q) for q in prune_queries}

        search = OrionSearch(
            database=prune_db,
            num_shards=8,
            fragment_length=2000,
            prune_threshold=threshold,
        )
        service = OrionService(search, ServiceConfig(max_inflight=2))

        async def main():
            async with service:
                return await asyncio.gather(
                    *(service.submit(q) for q in prune_queries)
                )

        results = asyncio.run(main())
        for query, result in zip(prune_queries, results):
            want = expected[query.seq_id]
            assert _canonical(result.alignments) == _canonical(want.alignments)
            assert result.pruned_map_tasks == want.pruned_map_tasks
        stats = service.stats
        assert stats.completed == len(prune_queries)
        assert stats.pruned_map_tasks == sum(
            r.pruned_map_tasks for r in expected.values()
        )
        assert stats.shards_searched == sum(
            r.shards_searched for r in expected.values()
        )
        assert stats.shards_pruned == sum(
            r.shards_pruned for r in expected.values()
        )
        assert stats.pruned_map_tasks > 0

    def test_stats_zero_when_pruning_off(self, prune_db, prune_queries):
        search = OrionSearch(database=prune_db, num_shards=8, fragment_length=2000)
        service = OrionService(search, ServiceConfig(max_inflight=2))

        async def main():
            async with service:
                return await service.submit(prune_queries[0])

        result = asyncio.run(main())
        assert result.pruned_map_tasks == 0
        assert service.stats.pruned_map_tasks == 0
        assert service.stats.shards_pruned == 0
        assert service.stats.shards_searched == 8


class TestPlaneLifecycleService:
    """Plane counters flow into ServiceStats; start() reaps orphans."""

    @pytest.fixture(scope="class")
    def plane_db(self):
        return make_database(seed=31, num_sequences=4, mean_length=1200, name="planedb")

    def test_plane_counters_accumulate_in_stats(self, plane_db):
        pytest.importorskip("multiprocessing.shared_memory")
        search = OrionSearch(
            database=plane_db, num_shards=2, executor="processes", num_workers=2
        )
        service = OrionService(search, ServiceConfig(max_inflight=2))
        rec = plane_db.records[0]
        queries = [rec.slice(0, min(800, len(rec)), seq_id=f"q{i}") for i in range(2)]

        async def main():
            async with service:
                return await asyncio.gather(*(service.submit(q) for q in queries))

        results = asyncio.run(main())
        # The service's one search created the plane once; every result it
        # produces carries that mode, and the stats tally each of them.
        assert all(r.plane_created == 1 for r in results)
        assert all(r.plane_fallback == 0 for r in results)
        assert service.stats.plane_created == len(queries)
        assert service.stats.plane_attached == 0
        assert service.stats.plane_fallback == 0

    def test_start_reaps_orphans_by_default(self, monkeypatch):
        from repro.mapreduce import shm as shm_mod

        calls = []
        monkeypatch.setattr(
            shm_mod, "reap_orphan_planes", lambda: calls.append(1) or []
        )
        fake = _BlockingSearch()

        async def main():
            service = OrionService(fake, ServiceConfig(max_inflight=1))
            await service.start()
            await service.aclose()

        asyncio.run(main())
        assert calls == [1]
