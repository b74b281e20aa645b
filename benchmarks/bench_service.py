"""Benchmark: always-on service vs serial ``run_many`` on a query set.

Not a paper artifact — this tracks the serving-layer trajectory entry: the
same query set runs once as the serial ``run_many`` baseline (one query at
a time on a 4-worker process pool; the pool drains between queries) and
once through :class:`~repro.service.OrionService` with concurrent
admission (4 in-flight queries interleave their (fragment × shard) tasks
on one shared pool). Reported: queries/sec for both paths plus the
service's p50/p99 admission-to-completion latency.

Shape criteria: per-query results are byte-identical to the serial
executor's ``run()`` on both paths, and on a multi-core runner concurrent
admission beats the serial baseline on queries/sec — the query-level
tail-idle gap is real and the service closes it. A second scenario drives
overload deterministically (fake clock, flaky backend): the circuit
breaker opens after consecutive failures, load is shed with typed
rejections while open, and the service recovers to serving after the
reset timeout.
"""

import asyncio
import os

from benchmarks.conftest import run_once
from repro.core.orion import OrionSearch
from repro.core.results import OrionResult
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.service import (
    CircuitOpenError,
    LatencyHistogram,
    OrionService,
    ServiceConfig,
)
from repro.util.timers import Stopwatch

#: Below this many cores concurrent-vs-serial throughput is machine noise.
MIN_CORES_FOR_QPS_ASSERT = 2

WORKERS = 4
NUM_QUERIES = 10


def _canonical(alignments):
    out = []
    for a in alignments:
        fields = dict(vars(a))
        path = fields.pop("path", None)
        fields["path"] = None if path is None else path.tobytes()
        out.append(tuple(sorted(fields.items())))
    return out


def _workload():
    """A query *set*: enough queries that inter-query pool drain shows."""
    db = make_database(seed=411, num_sequences=12, mean_length=8_000)
    queries = []
    for i in range(NUM_QUERIES):
        query, _ = make_query_with_homologies(
            seed=500 + i,
            length=30_000,
            database=db,
            homologies=[HomologySpec(length=600)] * 2,
            seq_id=f"q{i:02d}",
        )
        queries.append(query)
    return db, queries


def _search(db, executor):
    return OrionSearch(
        database=db,
        num_shards=4,
        fragment_length=6_000,
        executor=executor,
        num_workers=WORKERS,
    )


def test_service_concurrent_beats_serial_run_many(benchmark):
    db, queries = _workload()

    # Ground truth: the serial executor, query by query.
    with _search(db, "serial") as reference_search:
        reference = {q.seq_id: reference_search.run(q) for q in queries}

    def experiment():
        # --- baseline: run_many, one query at a time on the 4-worker pool
        serial_search = _search(db, "processes")
        try:
            serial_search.run(queries[0])  # warm: pool spawn + plane build
            sw = Stopwatch().start()
            serial_results = serial_search.run_many(queries)
            serial_wall = sw.stop()
        finally:
            serial_search.close()

        # --- service: concurrent admission over one shared pool
        service = OrionService(
            _search(db, "processes"),
            ServiceConfig(max_inflight=WORKERS, queue_depth=len(queries) + 1),
        )

        async def run_service():
            async with service:
                await service.submit(queries[0])  # warm, symmetrically
                service.stats.latencies = LatencyHistogram()
                sw = Stopwatch().start()
                results = await asyncio.gather(
                    *(service.submit(q) for q in queries)
                )
                return results, sw.stop()

        service_results, service_wall = asyncio.run(run_service())

        for q in queries:
            assert _canonical(serial_results[q.seq_id].alignments) == _canonical(
                reference[q.seq_id].alignments
            )
        for q, result in zip(queries, service_results):
            assert _canonical(result.alignments) == _canonical(
                reference[q.seq_id].alignments
            )

        return {
            "cores": os.cpu_count() or 1,
            "workers": WORKERS,
            "queries": len(queries),
            "serial_wall_s": serial_wall,
            "service_wall_s": service_wall,
            "serial_qps": len(queries) / max(serial_wall, 1e-9),
            "service_qps": len(queries) / max(service_wall, 1e-9),
            "service_p50_s": service.stats.latency_quantile(0.50),
            "service_p99_s": service.stats.latency_quantile(0.99),
            "shed": service.stats.rejected,
        }

    out = run_once(benchmark, experiment)
    benchmark.extra_info.update(out)
    print(
        f"\nservice on {out['cores']} core(s), {out['queries']} queries, "
        f"{out['workers']} workers: run_many {out['serial_wall_s']:.2f}s "
        f"({out['serial_qps']:.2f} q/s), service {out['service_wall_s']:.2f}s "
        f"({out['service_qps']:.2f} q/s), latency p50 {out['service_p50_s']:.2f}s "
        f"p99 {out['service_p99_s']:.2f}s"
    )
    assert out["shed"] == 0, "a sized queue must not shed this workload"
    if out["cores"] >= MIN_CORES_FOR_QPS_ASSERT:
        assert out["service_qps"] > out["serial_qps"], (
            f"concurrent admission gave {out['service_qps']:.2f} q/s vs "
            f"run_many's {out['serial_qps']:.2f} q/s on {out['cores']} cores; "
            f"the service should beat the serial loop"
        )


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class _FakeQuery:
    seq_id = "overload"

    def __len__(self):
        return 1


class _FlakyBackend:
    """Fails its first ``fail_first`` runs, then serves normally."""

    def __init__(self, fail_first):
        self.fail_first = fail_first
        self.runs = 0

    def run(self, query):
        self.runs += 1
        if self.runs <= self.fail_first:
            raise RuntimeError("backend overloaded")
        return OrionResult(
            query_id=query.seq_id, alignments=[], map_records=[],
            reduce_seconds=[], sort_seconds=0.0, fragment_length=len(query),
            overlap=0, num_fragments=1, num_shards=1,
        )

    def warmup(self):
        return None

    def close(self):
        return None


def test_service_overload_sheds_and_recovers(benchmark):
    """Deterministic overload: breaker opens, typed shed, full recovery."""

    def scenario():
        clock = _FakeClock()
        backend = _FlakyBackend(fail_first=3)
        config = ServiceConfig(
            max_inflight=1,
            queue_depth=4,
            breaker_failures=3,
            breaker_reset_seconds=30.0,
        )

        async def drive():
            async with OrionService(backend, config, clock=clock) as service:
                failures = 0
                for _ in range(3):
                    try:
                        await service.submit(_FakeQuery())
                    except RuntimeError:
                        failures += 1
                opened = service.breaker.state == "open"
                shed = 0
                for _ in range(5):
                    try:
                        await service.submit(_FakeQuery())
                    except CircuitOpenError:
                        shed += 1
                clock.advance(config.breaker_reset_seconds)
                probe = await service.submit(_FakeQuery())
                served_after = 0
                for _ in range(4):
                    await service.submit(_FakeQuery())
                    served_after += 1
                return {
                    "failures": failures,
                    "breaker_opened": opened,
                    "typed_rejections": shed,
                    "probe_ok": probe.query_id == "overload",
                    "served_after_recovery": served_after,
                    "breaker_state_after": service.breaker.state,
                    "rejected_circuit_open": service.stats.rejected_circuit_open,
                }

        return asyncio.run(drive())

    out = run_once(benchmark, scenario)
    benchmark.extra_info.update(out)
    print(
        f"\noverload: {out['failures']} failures opened the breaker "
        f"(opened={out['breaker_opened']}), {out['typed_rejections']} typed "
        f"rejections while open, recovery probe ok={out['probe_ok']}, "
        f"{out['served_after_recovery']} served after recovery "
        f"(state {out['breaker_state_after']})"
    )
    assert out["failures"] == 3
    assert out["breaker_opened"], "three consecutive failures must open the breaker"
    assert out["typed_rejections"] == 5, "open breaker must shed with CircuitOpenError"
    assert out["probe_ok"] and out["served_after_recovery"] == 4
    assert out["breaker_state_after"] == "closed"
    assert out["rejected_circuit_open"] == 5
