"""OrionService — the always-on asyncio front-end over OrionSearch.

The runtime executes one query's (fragment × shard) tasks in parallel, but
``run_many`` is a serial loop: the pool drains between queries and the
tail-idle gap the paper closes at task granularity reappears at query
granularity. The service closes it: queries are accepted concurrently, each
in-flight query drives :meth:`OrionSearch.run` on its own thread, and all
of their map attempts interleave in the one persistent
:class:`~repro.mapreduce.runtime.WorkerPool` — while one query shuffles
and reduces in its own driver thread, the next query's map tasks keep the
workers busy, so the pool never idles between queries. Per-query results are
byte-identical to calling ``run()`` alone (property-tested).

Admission checks, in order:

1. **closed?** — a draining/closed service raises
   :class:`~repro.service.errors.ServiceClosedError`;
2. **valid?** — an empty query
   (:class:`~repro.core.orion.EmptyQueryError`) is the client's mistake:
   it takes no queue slot and never reaches the breaker, which records
   only what the backend did with admitted work;
3. **bounded queue** — a full admission queue sheds the query with
   :class:`~repro.service.errors.QueueFullError` *before* enqueueing, so
   the event loop never blocks and admitted work is never dropped;
4. **circuit breaker** — the service's one closed/open/half-open
   :class:`~repro.service.breaker.CircuitBreaker` guards its search; while
   it is open the query is rejected with
   :class:`~repro.service.errors.CircuitOpenError` and the backend is
   left alone until the reset timeout admits recovery probes.

Shutdown is a drain: no new admissions, every admitted query completes,
worker threads stop, and the search's shared-memory plane and worker pool
are released (pool runs make no segment; the plane teardown here is what
frees ``/dev/shm``). If the workers were cancelled from outside (as
``asyncio.run`` does to every task when an exception escapes its loop),
nothing is left to run the queue: the drain stops waiting, and every
admission no worker took fails with
:class:`~repro.service.errors.ServiceClosedError`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import ceil, floor, inf, log2
from typing import Callable, List, Optional

from repro.core.orion import EmptyQueryError, OrionSearch
from repro.core.results import OrionResult
from repro.sequence.records import SequenceRecord
from repro.service.breaker import CircuitBreaker
from repro.service.errors import (
    CircuitOpenError,
    QueueFullError,
    ServiceClosedError,
)
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`OrionService` (CLI ``serve`` flags).

    ``max_inflight`` queries execute concurrently (each on its own worker
    thread, all feeding the shared worker pool); up to ``queue_depth``
    more wait in the bounded admission queue; beyond that, load is shed.
    The ``breaker_*`` knobs configure the service's circuit breaker and
    are validated here, at the configuration boundary. The served search
    prunes exactly as it was built (``OrionSearch(prune_threshold=...)``).
    """

    max_inflight: int = 4
    queue_depth: int = 16
    breaker_failures: int = 5
    breaker_reset_seconds: float = 30.0
    breaker_probes: int = 1

    def __post_init__(self) -> None:
        check_positive("max_inflight", self.max_inflight)
        check_positive("queue_depth", self.queue_depth)
        check_positive("breaker_failures", self.breaker_failures)
        check_positive("breaker_reset_seconds", self.breaker_reset_seconds)
        check_positive("breaker_probes", self.breaker_probes)


class LatencyHistogram:
    """Latencies in fixed logarithmic buckets: O(1) record, constant memory.

    An always-on service completes queries for as long as it lives, so its
    latency record must not grow with them. Bucket edges are
    ``2 ** (i / BUCKETS_PER_OCTAVE)`` seconds — every bucket is ~9 % wide
    relative to its value — from ``2 ** MIN_EXPONENT`` (~1 µs) to
    ``2 ** MAX_EXPONENT`` (~68 min); values outside land in the end
    buckets. :meth:`quantile` is the nearest-rank order statistic resolved
    to its bucket: the bucket's geometric midpoint, clamped to the exact
    minimum and maximum seen.
    """

    BUCKETS_PER_OCTAVE = 8
    MIN_EXPONENT = -20
    MAX_EXPONENT = 12

    def __init__(self) -> None:
        octaves = self.MAX_EXPONENT - self.MIN_EXPONENT
        self._counts = [0] * (octaves * self.BUCKETS_PER_OCTAVE)
        self._total = 0
        self._min = inf
        self._max = 0.0

    def __len__(self) -> int:
        return self._total

    def record(self, seconds: float) -> None:
        """Count one completed query's latency."""
        bucket = 0
        if seconds > 0.0:
            octave = log2(seconds) - self.MIN_EXPONENT
            bucket = floor(octave * self.BUCKETS_PER_OCTAVE)
            bucket = min(len(self._counts) - 1, max(0, bucket))
        self._counts[bucket] += 1
        self._min = min(self._min, seconds)
        self._max = max(self._max, seconds)
        self._total += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) in seconds; 0.0 when nothing is recorded."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._total == 0:
            return 0.0
        rank = max(1, ceil(q * self._total))
        seen = 0
        for bucket, count in enumerate(self._counts):
            seen += count
            if seen >= rank:
                break
        exponent = (bucket + 0.5) / self.BUCKETS_PER_OCTAVE + self.MIN_EXPONENT
        return min(self._max, max(self._min, 2.0 ** exponent))


@dataclass
class ServiceStats:
    """Counters and latencies for one service lifetime.

    ``latencies`` records admission-to-completion seconds per served query
    in a bounded :class:`LatencyHistogram`; :meth:`latency_quantile`
    reports its order statistics (p50/p99 in the benchmark and the
    ``serve`` summary). Rejections are split by cause so overload (queue
    full) and breaker sheds are tallied separately; empty queries turned
    away at the door are counted on their own and are not load shedding.
    Per-query counters (pruning, plane lifecycle) live on each
    :class:`~repro.core.results.OrionResult` the service returns.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_circuit_open: int = 0
    rejected_empty_query: int = 0
    latencies: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def rejected(self) -> int:
        return self.rejected_queue_full + self.rejected_circuit_open

    def latency_quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of completed-query latency, seconds."""
        return self.latencies.quantile(q)

    @property
    def p50(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99(self) -> float:
        return self.latency_quantile(0.99)


@dataclass
class _Admission:
    """One admitted query waiting in (or drained from) the queue."""

    query: SequenceRecord
    future: "asyncio.Future[OrionResult]"
    admitted_at: float


class OrionService:
    """Serve Orion queries concurrently over one search's worker pool.

    Parameters
    ----------
    search:
        The :class:`OrionSearch` every admitted query runs on.
    config:
        :class:`ServiceConfig` tuning knobs.
    clock:
        Monotonic time source for latency stats and breaker timeouts;
        tests inject a fake for deterministic transitions.

    Use as an async context manager::

        async with OrionService(search) as service:
            results = await asyncio.gather(
                *(service.submit(q) for q in queries)
            )

    :meth:`submit` resolves to the same :class:`OrionResult` a direct
    ``search.run(query)`` returns, or raises one of the typed admission
    errors (:mod:`repro.service.errors`).
    """

    def __init__(
        self,
        search: OrionSearch,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.search = search
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_timeout=self.config.breaker_reset_seconds,
            half_open_probes=self.config.breaker_probes,
            clock=clock,
        )
        self.stats = ServiceStats()
        self._state = "new"  # new → running → draining → closed
        self._queue: "asyncio.Queue[_Admission]" = asyncio.Queue(
            maxsize=self.config.queue_depth
        )
        self._workers: List["asyncio.Task[None]"] = []
        self._threads: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        return self._state

    async def start(self) -> None:
        """Spawn the worker coroutines and their thread pool (idempotent)."""
        if self._state == "running":
            return
        if self._state in ("draining", "closed"):
            raise ServiceClosedError("cannot restart a drained service")
        # Warm the search now, while this is still effectively a
        # single-threaded process: the shared plane is published and the
        # pool's workers are forked before any query thread exists.
        # Deferring this to the first queries would fork the workers
        # while sibling threads run — a forked child can inherit a lock
        # held at that instant and deadlock (see WorkerPool.prewarm).
        # First reclaim any plane a crashed previous replica orphaned, before
        # warmup publishes (or attaches) this replica's plane.
        from repro.mapreduce.shm import reap_orphan_planes

        reap_orphan_planes()
        self.search.warmup()
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="orion-service",
        )
        self._workers = [
            asyncio.create_task(self._worker(), name=f"orion-service-{i}")
            for i in range(self.config.max_inflight)
        ]
        self._state = "running"

    async def drain(self) -> None:
        """Stop admitting; wait for every admitted query to complete.

        Returns early once no worker is left to take the queue (every
        worker cancelled); :meth:`aclose` then fails what is still queued.
        """
        if self._state == "running":
            self._state = "draining"
        if self._state != "draining":
            return
        joined = asyncio.ensure_future(self._queue.join())
        try:
            live = [w for w in self._workers if not w.done()]
            while live and not joined.done():
                await asyncio.wait(
                    [joined, *live], return_when=asyncio.FIRST_COMPLETED
                )
                live = [w for w in live if not w.done()]
        finally:
            joined.cancel()

    async def aclose(self) -> None:
        """Drain, stop the workers, and release the search's resources.

        Admitted work is never shed while a worker lives: the queue is
        drained to completion before the workers stop. An admission left
        queued because every worker was already cancelled fails with
        :class:`~repro.service.errors.ServiceClosedError`. The search's
        shared-memory database plane and persistent worker pool are
        released (``/dev/shm`` is left clean); the search rebuilds both
        transparently if reused.
        """
        if self._state == "closed":
            return
        await self.drain()
        self._state = "closed"
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        while not self._queue.empty():
            admission = self._queue.get_nowait()
            if not admission.future.done():
                admission.future.set_exception(
                    ServiceClosedError("service closed before the query ran")
                )
            self._queue.task_done()
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        self.search.close()

    async def __aenter__(self) -> "OrionService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    async def submit(self, query: SequenceRecord) -> OrionResult:
        """Admit one query and await its result.

        Raises the typed admission errors on overload and
        :class:`~repro.core.orion.EmptyQueryError` for a zero-length query
        — see the module docstring for the order. Unlike ``run_many``, duplicate
        ``seq_id`` submissions are fine: every submission resolves to its
        own result object.
        """
        if self._state != "running":
            raise ServiceClosedError(
                f"service is {self._state}; no new queries admitted"
            )
        if len(query) == 0:
            self.stats.rejected_empty_query += 1
            raise EmptyQueryError(query.seq_id)
        # Shed *before* touching the breaker: a rejected query must not
        # consume a half-open probe slot. full() → put_nowait is race-free
        # on the single-threaded event loop (no await in between).
        if self._queue.full():
            self.stats.rejected_queue_full += 1
            raise QueueFullError(self.config.queue_depth)
        if not self.breaker.allow():
            self.stats.rejected_circuit_open += 1
            raise CircuitOpenError()
        admission = _Admission(
            query=query,
            future=asyncio.get_running_loop().create_future(),
            admitted_at=self._clock(),
        )
        self._queue.put_nowait(admission)
        self.stats.submitted += 1
        return await admission.future

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    async def _worker(self) -> None:
        """One in-flight slot: pull admissions, run them on a thread."""
        loop = asyncio.get_running_loop()
        # Not a retry loop: each iteration serves a *different* admission,
        # and a failure is delivered to that submitter's future (and the
        # breaker), never swallowed. The loop ends by cancellation.
        while True:  # orionlint: disable=ORL009
            admission = await self._queue.get()
            try:
                result = await loop.run_in_executor(
                    self._threads, self.search.run, admission.query
                )
            except asyncio.CancelledError:
                # aclose() cancels workers only after the queue is
                # drained; an admission caught mid-flight is still owed
                # an answer.
                if not admission.future.done():
                    admission.future.set_exception(
                        ServiceClosedError("service closed mid-query")
                    )
                self._queue.task_done()
                raise
            except Exception as exc:
                self.breaker.record_failure()
                self.stats.failed += 1
                if not admission.future.done():
                    admission.future.set_exception(exc)
            else:
                self.breaker.record_success()
                self.stats.completed += 1
                self.stats.latencies.record(
                    self._clock() - admission.admitted_at
                )
                if not admission.future.done():
                    admission.future.set_result(result)
            self._queue.task_done()
