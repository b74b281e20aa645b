"""One measurement in one fresh process: ``worker.py <workload> <seed> <seconds> <trace>``.

Spawned by :mod:`benchmarks.ledger.run` (clean RSS, clean pool and plane).
Prints one JSON report as the last line of stdout: the gated end-to-end
metrics (``trace`` 0, every shim absent) or the per-layer metrics
(``trace`` 1). Layers are timed from outside, around calls into their
public functions; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.blast.engine as engine_mod
import repro.core.orion as orion_mod
from repro.blast.engine import BlastEngine, SearchCounters
from repro.blast.hsp import Alignment
from repro.blast.params import BlastParams
from repro.core.orion import OrionSearch
from repro.core.results import OrionResult
from repro.mapreduce.runtime import WorkerPool
from repro.mapreduce.shm import PlaneRegistry
from repro.mapreduce.types import TaskKind, TaskRecord
from repro.sequence.records import SequenceRecord
from repro.service import OrionService, QueueFullError, ServiceConfig
from repro.sketch import ShardSketchIndex

from benchmarks.ledger.run import declaration
from benchmarks.ledger.trace import Tracer, fold, totals, write_chrome_trace
from benchmarks.ledger.workloads import (
    OPEN_LOOP_RATE,
    ORACLE_QUERIES,
    SERVICE_CLIENTS,
    SERVICE_QUEUE_DEPTH,
    SETUP_CYCLES,
    WARMUP_QUERIES,
    WORKERS,
    WORKLOADS,
    Inputs,
    Workload,
    build_search,
    canonical,
    significant,
)

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Traced ``service_closed`` closed-loop phase and its ``run_many`` baseline.
TRACED_SERVICE_QUERIES = 60
SEQUENTIAL_QUERIES = 20
#: Traced and untraced repeats per query behind ``trace.overhead_ratio``.
OVERHEAD_REPEATS = 3
#: Consecutive blocks a gated run is cut into; see :func:`quiet_half`.
QUIET_BLOCKS = 8
RUN_SPAN = "core.orion.run"
#: Folded into a leaf: research-mode aggregation re-enters the engine, and
#: that work belongs to the reduce side, not to the map-side engine layers.
AGGREGATE_SPAN = "core.aggregator.aggregate"

clock = time.perf_counter


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (the service's own definition)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def driver_rss_mb() -> float:
    """Resident set of this (the driver) process right now, MiB.

    Read when the timed phase ends. Not the high-water mark: the in-process
    serial oracle can draw the same rare DP plane as the workers (see
    :func:`worker_rss_mb`) and would make ``ru_maxrss`` bimodal.
    """
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * resource.getpagesize() / 2**20


def worker_rss_mb() -> float:
    """``ru_maxrss`` of the largest reaped child (a pool worker), MiB.

    Not gated: one speculative extension over a homology allocates a DP
    plane of tens of MiB in whichever worker draws it, so this reads either
    the baseline or baseline + plane depending on the seed.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def machine_block() -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1min_at_start": load1,
        "noisy": load1 > nproc / 2,
    }


def service_config() -> ServiceConfig:
    return ServiceConfig(
        max_inflight=SERVICE_CLIENTS, queue_depth=SERVICE_QUEUE_DEPTH
    )


class Failures:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def raised(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(f"{what} raised {sys.exc_info()[0].__name__}")


# --------------------------------------------------------------------------- #
# correctness: the serial oracle
# --------------------------------------------------------------------------- #


class Oracle:
    """The serial reference: alignments field-for-field, traceback included.

    With pruning on, the *unpruned* serial run is a second reference: every
    (subject, strand) it reports significantly must still be reported
    significantly, or the query failed. A probe judges each fragment alone,
    so the sliver of a homology that straddles a fragment boundary can be
    pruned and its alignment come back shorter; that is counted (``exact``
    of ``significant``), not failed.
    """

    def __init__(self, workload: Workload, inputs: Inputs, failures: Failures) -> None:
        self._failures = failures
        self._serial = build_search(workload, inputs.database, "serial")
        self._unpruned = (
            build_search(workload, inputs.database, "serial", prune=False)
            if workload.prune_threshold is not None
            else None
        )
        self.serial_walls: List[float] = []
        self.significant = 0
        self.exact = 0

    def check(
        self,
        query: SequenceRecord,
        observed: Sequence[Alignment],
        expected: Optional[Sequence[Alignment]] = None,
    ) -> float:
        """Judge one query's alignments; returns the serial wall.

        ``expected`` supplies a serial result the caller already has (the
        traced pass); otherwise the serial run happens, timed, here.
        """
        wall = 0.0
        if expected is None:
            start = clock()
            expected = self._serial.run(query).alignments
            wall = clock() - start
            self.serial_walls.append(wall)
        got = canonical(observed)
        if canonical(expected) != got:
            self._failures.fail(f"{query.seq_id}: alignments differ from the serial oracle")
        if self._unpruned is not None:
            full = significant(self._unpruned.run(query).alignments)
            self.significant += len(full)
            self.exact += len(set(canonical(full)) & set(got))
            found = {(a.subject_id, a.strand) for a in significant(observed)}
            if not {(a.subject_id, a.strand) for a in full} <= found:
                self._failures.fail(f"{query.seq_id}: pruning lost a significant subject")
        return wall


# --------------------------------------------------------------------------- #
# gated run (trace 0): end-to-end metrics, no shim anywhere
# --------------------------------------------------------------------------- #


def setup_cycles(cycle: Callable[[], None]) -> float:
    """Median wall of ``SETUP_CYCLES`` cold set-up → tear-down cycles."""
    samples = []
    for _ in range(SETUP_CYCLES):
        start = clock()
        cycle()
        samples.append(clock() - start)
    return statistics.median(samples)


def search_cycle(workload: Workload, inputs: Inputs) -> None:
    search = build_search(workload, inputs.database, "processes")
    try:
        search.warmup()
    finally:
        search.close()


def service_cycle(workload: Workload, inputs: Inputs) -> None:
    async def cycle() -> None:
        search = build_search(workload, inputs.database, "processes")
        service = OrionService(search, service_config())
        try:
            await service.start()
        finally:
            await service.aclose()

    asyncio.run(cycle())


#: One timed operation: its wall and its share of the phase wall (the same
#: number in a one-caller loop; the gap since the previous completion when
#: two clients overlap).
Sample = Tuple[float, float]


def quiet_half(samples: Sequence[Sample]) -> List[Sample]:
    """The samples of the quieter half of a run.

    This box slows down by 10-30 % for seconds at a time (a fixed NumPy
    kernel on the otherwise idle machine reads 25-36 ms), and it only ever
    slows down. The run is cut into ``QUIET_BLOCKS`` consecutive blocks and
    the half with the lowest median wall is kept: a change to the program
    moves every block, a busy neighbour only some. Too few samples to cut
    (``--quick``) are kept whole.
    """
    size = len(samples) // QUIET_BLOCKS
    if size < 2:
        return list(samples)
    blocks = [samples[b * size:(b + 1) * size] for b in range(QUIET_BLOCKS)]
    blocks.sort(key=lambda block: statistics.median(wall for wall, _ in block))
    return [sample for block in blocks[:QUIET_BLOCKS // 2] for sample in block]


def timed_search_loop(
    workload: Workload, inputs: Inputs, seconds: float, failures: Failures, oracle: Oracle
) -> Tuple[List[Sample], List[float], float]:
    """Closed loop, one caller: the next query starts when the last returns.

    Runs until ``seconds`` of query wall have been measured. Returns the
    samples, the driver's resident set when the loop ends and, for the
    oracle queries, serial wall / (workers x process wall). Each oracle
    query runs serially right after its timed run, so both sides of that
    ratio see the same machine state.
    """
    walls: List[float] = []
    efficiencies: List[float] = []
    measured = rss = 0.0
    search = build_search(workload, inputs.database, "processes")
    try:
        search.warmup()
        for j in range(WARMUP_QUERIES):
            search.run(inputs.query("warm", j))
        for i in itertools.count():
            if i >= ORACLE_QUERIES and measured >= seconds:
                break
            query = inputs.query("timed", i)
            failures.attempted += 1
            start = clock()
            try:
                result = search.run(query)
            except Exception:
                failures.raised(query.seq_id)
                continue
            walls.append(clock() - start)
            measured += walls[-1]
            if i < ORACLE_QUERIES:
                serial_wall = oracle.check(query, result.alignments)
                efficiencies.append(serial_wall / (WORKERS * walls[-1]))
        rss = driver_rss_mb()
    finally:
        search.close()
    return [(wall, wall) for wall in walls], efficiencies, rss


async def closed_loop(
    service: OrionService,
    inputs: Inputs,
    failures: Failures,
    keep_going: Callable[[int], bool],
    submitted_at: Optional[Dict[str, float]] = None,
) -> Tuple[List[Sample], Dict[int, List[Alignment]], float, float]:
    """``SERVICE_CLIENTS`` coroutines, each awaiting ``submit()`` in turn.

    Returns the samples in completion order, the kept alignments, the phase
    wall and the driver's resident set when the phase ends.
    """
    samples: List[Sample] = []
    kept: Dict[int, List[Alignment]] = {}
    counter = itertools.count()
    last_done = 0.0

    async def client() -> None:
        nonlocal last_done
        while True:
            i = next(counter)
            if not keep_going(i):
                return
            query = inputs.query("timed", i)
            failures.attempted += 1
            start = clock()
            if submitted_at is not None:
                submitted_at[query.seq_id] = start
            try:
                result = await service.submit(query)
            except Exception:
                failures.raised(query.seq_id)
                continue
            done = clock()
            samples.append((done - start, done - last_done))
            last_done = done
            if i < ORACLE_QUERIES:
                kept[i] = result.alignments

    for j in range(WARMUP_QUERIES):
        await service.submit(inputs.query("warm", j))
    phase_start = last_done = clock()
    await asyncio.gather(*(client() for _ in range(SERVICE_CLIENTS)))
    return samples, kept, clock() - phase_start, driver_rss_mb()


def timed_service_loop(
    workload: Workload, inputs: Inputs, seconds: float, failures: Failures
) -> Tuple[List[Sample], Dict[int, List[Alignment]], float, float]:
    async def phase_a() -> Tuple[List[Sample], Dict[int, List[Alignment]], float, float]:
        search = build_search(workload, inputs.database, "processes")
        async with OrionService(search, service_config()) as service:
            deadline = clock() + seconds
            return await closed_loop(
                service, inputs, failures,
                lambda i: i < ORACLE_QUERIES or clock() < deadline,
            )

    return asyncio.run(phase_a())


def gated(workload: Workload, inputs: Inputs, seconds: float) -> Dict[str, Any]:
    failures = Failures()
    cycle = service_cycle if workload.service else search_cycle
    setup_s = setup_cycles(lambda: cycle(workload, inputs))

    oracle = Oracle(workload, inputs, failures)
    if workload.service:
        samples, kept, _, rss = timed_service_loop(workload, inputs, seconds, failures)
        for i in sorted(kept):
            oracle.check(inputs.query("timed", i), kept[i])
    else:
        samples, efficiencies, rss = timed_search_loop(
            workload, inputs, seconds, failures, oracle
        )
    quiet = quiet_half(samples)
    walls = [wall for wall, _ in quiet]
    qps = len(quiet) / sum(share for _, share in quiet)
    serial_p50 = statistics.median(oracle.serial_walls)
    if workload.service:
        efficiency = qps * serial_p50 / WORKERS
    else:
        efficiency = statistics.median(efficiencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_wall_s_p50": (statistics.median(walls), "s"),
        "query_wall_s_p90": (percentile(walls, 0.90), "s"),
        "query_bases_per_s": (qps * workload.query_length, "bases/s"),
        "qps": (qps, "1/s"),
        "parallel_efficiency": (efficiency, "ratio"),
        "driver_rss_mb": (rss, "MiB"),
    }
    every = [wall for wall, _ in samples]
    info = {
        "samples": len(samples),
        "quiet_samples": len(quiet),
        "whole_run_wall_s_p50": statistics.median(every),
        "whole_run_wall_s_p90": percentile(every, 0.90),
        "whole_run_qps": len(samples) / sum(share for _, share in samples),
        "serial_wall_s_p50": serial_p50,
        "worker_peak_rss_mb": worker_rss_mb(),
        "db_bases": inputs.database.total_length,
    }
    return report(metrics, failures, info)


# --------------------------------------------------------------------------- #
# traced run (trace 1): per-layer metrics
# --------------------------------------------------------------------------- #


class JobLog:
    """What ``assemble()`` was handed, one entry per query after the warm-ups."""

    def __init__(self, skip: int = 0) -> None:
        self._skip = skip
        self._entries: List[Tuple[float, List[TaskRecord], int, int]] = []

    def observe(self, args: tuple, result: Any, start: float, end: float) -> None:
        _search, plan, mr, mapreduce_wall = args[:4]
        self._entries.append(
            (mapreduce_wall, mr.records, len(plan.splits), plan.pruned_map_tasks)
        )

    @property
    def entries(self) -> List[Tuple[float, List[TaskRecord], int, int]]:
        return self._entries[self._skip:]

    @property
    def job_wall(self) -> float:
        return sum(e[0] for e in self.entries)

    @property
    def map_tasks(self) -> int:
        return sum(e[2] for e in self.entries)

    @property
    def pruned_tasks(self) -> int:
        return sum(e[3] for e in self.entries)

    def metrics(self, wall: float) -> Dict[str, Tuple[float, str]]:
        """``mapreduce.runtime.*`` from the task records.

        ``wall`` is the time the workers were available for these jobs: the
        summed job walls for sequential queries, the phase wall for the
        service (its jobs overlap).
        """
        records = [r for e in self.entries for r in e[1]]
        fallbacks = sum(any(r.fallback_reason for r in e[1]) for e in self.entries)
        maps = [r.duration for r in records if r.kind is TaskKind.MAP]
        reduces = [r.duration for r in records if r.kind is TaskKind.REDUCE]
        compute = sum(maps) + sum(reduces)
        mean = statistics.fmean(maps) if maps else 0.0
        cv = statistics.pstdev(maps) / mean if mean else 0.0
        p = "mapreduce.runtime."
        return {
            p + "job_wall_s": (self.job_wall, "s"),
            p + "map_compute_s": (sum(maps), "s"),
            p + "reduce_compute_s": (sum(reduces), "s"),
            p + "overhead_ratio": (wall * WORKERS / compute if compute else 0.0, "ratio"),
            p + "map_task_s_mean": (mean, "s"),
            p + "map_task_s_cv": (cv, "ratio"),
            p + "shuffle_bytes": (sum(r.shuffle_bytes_out for r in records), "bytes"),
            p + "task_attempts": (sum(r.attempts for r in records), "count"),
            p + "retried_tasks": (sum(r.attempts > 1 for r in records), "count"),
            p + "serial_fallbacks": (fallbacks, "count"),
        }


def layer_bindings(
    search_counters: Dict[float, SearchCounters], jobs: JobLog
) -> list:
    """Pass (a): the public names the engine and the driver import."""

    def on_search(args: tuple, result: Any, start: float, end: float) -> None:
        search_counters[start] = result.counters

    return [
        (engine_mod, "QueryIndex", "blast.lookup.index_build", None),
        (engine_mod, "find_seeds", "blast.seeds.find", None),
        (engine_mod, "extend_seeds_ungapped", "blast.ungapped.extend", None),
        (engine_mod, "extend_gapped", "blast.gapped.extend", None),
        (BlastEngine, "search", "blast.engine.search", on_search),
        (ShardSketchIndex, "probe", "sketch.probe", None),
        (orion_mod, "fragment_query", "core.fragmenter.fragment", None),
        (orion_mod, "aggregate_subject_alignments", AGGREGATE_SPAN, None),
        (orion_mod, "parallel_sort_alignments", "core.sortmr.sort", None),
        (OrionSearch, "prepare", "core.orion.prepare", None),
        (OrionSearch, "assemble", "core.orion.assemble", jobs.observe),
        (OrionSearch, "run", RUN_SPAN, None),
    ]


def serial_pass(
    workload: Workload, inputs: Inputs
) -> Tuple[Tracer, Dict[float, SearchCounters], JobLog, Dict[int, OrionResult], float]:
    """Pass (a): every layer shimmed, ``executor="serial"``, one thread.

    Doubles as the oracle run. Each query runs ``OVERHEAD_REPEATS`` times
    traced and untraced, interleaved; the overhead compares the fastest wall
    of each (single walls differ by +-10 % between identical runs on this
    box, the minima by ~1 %). Only the first traced repeat is recorded.
    """
    tracer = Tracer()
    search_counters: Dict[float, SearchCounters] = {}
    jobs = JobLog()
    recorded = layer_bindings(search_counters, jobs)
    search = build_search(workload, inputs.database, "serial")
    search.run(inputs.query("warm", 0))  # fills the driver-side k-mer store
    results: Dict[int, OrionResult] = {}
    traced_wall = plain_wall = 0.0
    for i in range(ORACLE_QUERIES):
        query = inputs.query("timed", i)
        traced_walls, plain_walls = [], []
        for repeat in range(OVERHEAD_REPEATS):
            if repeat == 0:
                shims = tracer.patched(recorded)
            else:
                shims = Tracer().patched(layer_bindings({}, JobLog()))
            with shims:
                start = clock()
                result = search.run(query)
                traced_walls.append(clock() - start)
            results.setdefault(i, result)
            start = clock()
            search.run(query)
            plain_walls.append(clock() - start)
        traced_wall += min(traced_walls)
        plain_wall += min(plain_walls)
    return tracer, search_counters, jobs, results, traced_wall / plain_wall - 1.0


def plane_and_pool(inputs: Inputs, k: int) -> Dict[str, Tuple[float, str]]:
    """``mapreduce.shm.*``: publish, re-attach and prewarm, timed directly."""
    start = clock()
    first = PlaneRegistry.attach_or_create(inputs.database, k)
    create_s = clock() - start
    try:
        start = clock()
        second = PlaneRegistry.attach_or_create(inputs.database, k)
        attach_s = clock() - start
        second.release()
        plane_bytes = 0
        for name in first.handle.segment_names:
            try:
                plane_bytes += os.stat(os.path.join("/dev/shm", name)).st_size
            except OSError:
                pass  # not a tmpfs-backed platform: report what is visible
    finally:
        first.release()
    pool = WorkerPool(max_workers=WORKERS)
    try:
        start = clock()
        pool.prewarm()
        prewarm_s = clock() - start
    finally:
        pool.shutdown()
    p = "mapreduce.shm."
    return {
        p + "plane_create_s": (create_s, "s"),
        p + "plane_attach_s": (attach_s, "s"),
        p + "plane_bytes": (plane_bytes, "bytes"),
        p + "pool_prewarm_s": (prewarm_s, "s"),
    }


def driver_bindings(jobs: JobLog, run_observer: Any = None) -> list:
    """Pass (b): spans only where the driver hands work to the runtime."""
    return [
        (OrionSearch, "warmup", "core.orion.warmup", None),
        (ShardSketchIndex, "build", "sketch.index_build", None),
        (OrionSearch, "prepare", "core.orion.prepare", None),
        (OrionSearch, "assemble", "core.orion.assemble", jobs.observe),
        (OrionSearch, "run", RUN_SPAN, run_observer),
    ]


def process_pass_search(
    workload: Workload, inputs: Inputs, failures: Failures
) -> Tuple[Tracer, JobLog, float, Dict[int, List[Alignment]]]:
    tracer = Tracer()
    jobs = JobLog(skip=WARMUP_QUERIES)
    kept: Dict[int, List[Alignment]] = {}
    with tracer.patched(driver_bindings(jobs)):
        search = build_search(workload, inputs.database, "processes")
        try:
            search.warmup()
            for j in range(WARMUP_QUERIES):
                search.run(inputs.query("warm", j))
            for i in range(ORACLE_QUERIES):
                failures.attempted += 1
                try:
                    kept[i] = search.run(inputs.query("timed", i)).alignments
                except Exception:
                    failures.raised(f"timed{i:05d}")
        finally:
            search.close()
    return tracer, jobs, jobs.job_wall, kept


def process_pass_service(
    workload: Workload, inputs: Inputs, seconds: float, failures: Failures
) -> Tuple[
    Tracer, JobLog, float, Dict[int, List[Alignment]], Dict[str, Tuple[float, str]]
]:
    """Pass (b) for ``service_closed``: traced phase A, baseline, phase B."""
    tracer = Tracer()
    jobs = JobLog(skip=WARMUP_QUERIES)
    submitted_at: Dict[str, float] = {}
    runs: Dict[str, Tuple[float, float]] = {}

    def on_run(args: tuple, result: Any, start: float, end: float) -> None:
        runs[args[1].seq_id] = (start, end)

    async def phase_a() -> Tuple[Dict[int, List[Alignment]], float, Any]:
        search = build_search(workload, inputs.database, "processes")
        async with OrionService(search, service_config()) as service:
            _, kept, wall, _ = await closed_loop(
                service, inputs, failures,
                lambda i: i < TRACED_SERVICE_QUERIES, submitted_at,
            )
            return kept, wall, service.stats

    with tracer.patched(driver_bindings(jobs, on_run)):
        kept, phase_wall, stats = asyncio.run(phase_a())
    waits = [runs[q][0] - t for q, t in submitted_at.items() if q in runs]
    durations = [runs[q][1] - runs[q][0] for q in submitted_at if q in runs]

    # The old baseline: the same kind of queries, one at a time, run_many.
    sequential = [inputs.query("seq", i) for i in range(SEQUENTIAL_QUERIES)]
    search = build_search(workload, inputs.database, "processes")
    try:
        search.warmup()
        search.run_many([inputs.query("warm", j) for j in range(WARMUP_QUERIES)])
        start = clock()
        search.run_many(sequential)
        sequential_qps = len(sequential) / (clock() - start)
    finally:
        search.close()

    open_loop = asyncio.run(phase_b(workload, inputs, seconds, failures))
    p = "service."
    metrics = {
        p + "queue_wait_s_p50": (statistics.median(waits), "s"),
        p + "run_s_p50": (statistics.median(durations), "s"),
        p + "submitted": (stats.submitted, "count"),
        p + "completed": (stats.completed, "count"),
        p + "rejected_queue_full": (stats.rejected_queue_full, "count"),
        p + "rejected_circuit_open": (stats.rejected_circuit_open, "count"),
        p + "sequential_qps": (sequential_qps, "1/s"),
        **open_loop,
    }
    return tracer, jobs, phase_wall, kept, metrics


async def phase_b(
    workload: Workload, inputs: Inputs, seconds: float, failures: Failures
) -> Dict[str, Tuple[float, str]]:
    """Open loop: seeded Poisson arrivals at a fixed rate, latency from due time.

    Two closed-loop clients never queue behind ``max_inflight=2``; this phase
    does. A shed arrival is a measurement here, not a failure (ungated).
    """
    rng = inputs.rng("open-loop arrivals")
    due: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / OPEN_LOOP_RATE))
        if t >= seconds:
            break
        due.append(t)
    queries = [inputs.query("open", i) for i in range(len(due))]
    latencies: List[float] = []
    lags: List[float] = []
    shed = 0

    async def one(service: OrionService, query: SequenceRecord, due_at: float) -> None:
        nonlocal shed
        try:
            await service.submit(query)
        except QueueFullError:
            shed += 1
        except Exception:
            failures.raised(query.seq_id)
        else:
            latencies.append(clock() - due_at)

    search = build_search(workload, inputs.database, "processes")
    async with OrionService(search, service_config()) as service:
        for j in range(WARMUP_QUERIES):
            await service.submit(inputs.query("openwarm", j))
        origin = clock()
        tasks = []
        for query, offset in zip(queries, due):
            delay = origin + offset - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(clock() - (origin + offset))
            failures.attempted += 1
            tasks.append(asyncio.create_task(one(service, query, origin + offset)))
        await asyncio.gather(*tasks)
    p = "service.open_"
    return {
        p + "latency_s_p50": (statistics.median(latencies) if latencies else 0.0, "s"),
        p + "latency_s_p90": (percentile(latencies, 0.90) if latencies else 0.0, "s"),
        p + "shed_fraction": (shed / len(due) if due else 0.0, "ratio"),
        p + "generator_lag_s_p90": (percentile(lags, 0.90) if lags else 0.0, "s"),
    }


def service_zeroes() -> Dict[str, Tuple[float, str]]:
    """``service.*`` as the search workloads report it: declared, and zero."""
    return {
        m["name"]: (0, m["unit"])
        for m in declaration()["per_layer"]
        if m["name"].startswith("service.")
    }


def traced(workload: Workload, inputs: Inputs, seconds: float) -> Dict[str, Any]:
    failures = Failures()
    serial_tracer, search_counters, serial_jobs, oracle, overhead = serial_pass(
        workload, inputs
    )
    shm_metrics = plane_and_pool(inputs, BlastParams().k)
    if workload.service:
        driver_tracer, jobs, wall, kept, service_metrics = process_pass_service(
            workload, inputs, seconds, failures
        )
    else:
        driver_tracer, jobs, wall, kept = process_pass_search(
            workload, inputs, failures
        )
        service_metrics = service_zeroes()
    check = Oracle(workload, inputs, failures)
    for i in sorted(kept):
        check.check(inputs.query("timed", i), kept[i], oracle[i].alignments)

    map_side = fold(serial_tracer.spans, AGGREGATE_SPAN)
    layer = totals(map_side)
    driver = totals(driver_tracer.spans)
    counters = SearchCounters()
    for name, start, _ in map_side:
        if name == "blast.engine.search":
            counters.merge(search_counters[start])

    def self_s(name: str, table: Dict[str, Dict[str, float]] = layer) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(layer.get(name, {}).get("calls", 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    results = list(oracle.values())
    planned = serial_jobs.map_tasks + serial_jobs.pruned_tasks
    metrics: Dict[str, Tuple[float, str]] = {
        "blast.lookup.index_build_s": (self_s("blast.lookup.index_build"), "s"),
        "blast.lookup.index_builds": (calls("blast.lookup.index_build"), "count"),
        "blast.seeds.find_s": (self_s("blast.seeds.find"), "s"),
        "blast.seeds.calls": (calls("blast.seeds.find"), "count"),
        "blast.seeds.hits": (counters.seeds, "count"),
        "blast.ungapped.extend_s": (self_s("blast.ungapped.extend"), "s"),
        "blast.ungapped.extensions": (counters.ungapped_extensions, "count"),
        "blast.ungapped.pass_ratio": (
            ratio(counters.hsps_passing_threshold, counters.ungapped_extensions), "ratio"),
        "blast.gapped.extend_s": (self_s("blast.gapped.extend"), "s"),
        "blast.gapped.extensions": (counters.gapped_extensions, "count"),
        "blast.gapped.speculative_extensions": (counters.speculative_extensions, "count"),
        "blast.gapped.reported_ratio": (
            ratio(counters.alignments_reported, counters.gapped_extensions), "ratio"),
        "blast.engine.search_s": (
            layer.get("blast.engine.search", {}).get("total_s", 0.0), "s"),
        "blast.engine.self_s": (self_s("blast.engine.search"), "s"),
        "blast.engine.subjects_scanned": (counters.subjects_scanned, "count"),
        "sketch.index_build_s": (self_s("sketch.index_build", driver), "s"),
        "sketch.probe_s": (self_s("sketch.probe"), "s"),
        "sketch.probes": (calls("sketch.probe"), "count"),
        "sketch.exact_survivor_ratio": (ratio(check.exact, check.significant), "ratio"),
        "core.fragmenter.fragment_s": (self_s("core.fragmenter.fragment"), "s"),
        "core.fragmenter.fragments": (sum(r.num_fragments for r in results), "count"),
        "core.orion.prepare_s": (self_s("core.orion.prepare"), "s"),
        "core.orion.assemble_s": (self_s("core.orion.assemble"), "s"),
        "core.orion.map_tasks": (serial_jobs.map_tasks, "count"),
        "core.orion.pruned_task_fraction": (
            ratio(serial_jobs.pruned_tasks, planned), "ratio"),
        "core.aggregator.aggregate_s": (self_s(AGGREGATE_SPAN), "s"),
        "core.aggregator.merged_pairs": (sum(r.merged_pairs for r in results), "count"),
        "core.aggregator.dropped_partials": (
            sum(r.dropped_partials for r in results), "count"),
        "core.sortmr.sort_s": (self_s("core.sortmr.sort"), "s"),
        **jobs.metrics(wall),
        "mapreduce.runtime.worker_peak_rss_mb": (worker_rss_mb(), "MiB"),
        **shm_metrics,
        **service_metrics,
        "trace.overhead_ratio": (overhead, "ratio"),
    }

    OUT_DIR.mkdir(exist_ok=True)
    timed_ids = [f"timed{i:05d}" for i in range(ORACLE_QUERIES)]
    write_chrome_trace(
        OUT_DIR / f"trace_{workload.name}.json",
        {"serial (every layer)": serial_tracer.spans,
         "driver (process-backed)": driver_tracer.spans},
        run_span=RUN_SPAN,
        query_ids={"serial (every layer)": timed_ids},
    )
    info = {
        "traced_queries": ORACLE_QUERIES,
        "spans": len(serial_tracer.spans) + len(driver_tracer.spans),
        "serial_run_self_s": self_s(RUN_SPAN),
    }
    return report(metrics, failures, info)


# --------------------------------------------------------------------------- #


def report(
    metrics: Dict[str, Tuple[float, str]], failures: Failures, info: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "correct": failures.failed == 0,
        "attempted": max(1, failures.attempted),
        "failed": failures.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "info": {**info, "failure_reasons": failures.reasons},
    }


def main(argv: Sequence[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    workload = WORKLOADS[name]
    machine = machine_block()
    start = clock()
    inputs = Inputs(workload, seed)
    digest = inputs.digest()
    datagen_s = clock() - start
    with warnings.catch_warnings(record=True) as caught:
        # A degraded run (serial fallback, plane fallback) still returns the
        # right alignments, but its timings mean something else: count it.
        warnings.simplefilter("always", RuntimeWarning)
        out = (traced if trace else gated)(workload, inputs, seconds)
    degraded = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if degraded:
        out["failed"] += len(degraded)
        out["correct"] = False
        out["info"]["failure_reasons"] += [f"RuntimeWarning: {m}" for m in degraded[:5]]
    out["info"].update(machine=machine, datagen_s=datagen_s, input_digest=digest)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
