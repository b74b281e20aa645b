"""OrionService — the always-on asyncio front-end over OrionSearch.

The runtime executes one query's (fragment × shard) tasks in parallel, but
``run_many`` is a serial loop: the pool drains between queries and the
tail-idle gap the paper closes at task granularity reappears at query
granularity. The service closes it: queries are accepted concurrently, each
in-flight query drives :meth:`OrionSearch.run` on its own thread, and all
of their map/reduce attempts interleave in the one persistent
:class:`~repro.mapreduce.runtime.WorkerPool` — one query's reduce tasks
slow-start (streaming shuffle) while the next query's map tasks fill the
gaps, so the pool never idles between queries. Per-query results are
byte-identical to calling ``run()`` alone (property-tested).

Admission checks, in order:

1. **closed?** — a draining/closed service raises
   :class:`~repro.service.errors.ServiceClosedError`;
2. **valid?** — an unknown database, an empty query
   (:class:`~repro.core.orion.EmptyQueryError`) or a ``fragment_length``
   that is not positive (``ValueError``) is the client's mistake: it takes
   no queue slot and never reaches the breaker, which records only what
   the backend did with admitted work;
3. **bounded queue** — a full admission queue sheds the query with
   :class:`~repro.service.errors.QueueFullError` *before* enqueueing, so
   the event loop never blocks and admitted work is never dropped;
4. **circuit breaker** — each database has a closed/open/half-open
   :class:`~repro.service.breaker.CircuitBreaker`; while it is open the
   query is rejected with
   :class:`~repro.service.errors.CircuitOpenError` and the backend is
   left alone until the reset timeout admits recovery probes.

Shutdown is a drain: no new admissions, every admitted query completes,
worker threads stop, and each search's shared-memory plane and worker pool
are released (spill segments are swept per job by the runtime; the plane
teardown here is what frees ``/dev/shm``).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import ceil, floor, inf, log2
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.orion import EmptyQueryError, OrionSearch
from repro.core.results import OrionResult
from repro.sequence.records import SequenceRecord
from repro.service.breaker import CircuitBreaker
from repro.service.errors import (
    CircuitOpenError,
    QueueFullError,
    ServiceClosedError,
    UnknownDatabaseError,
)
from repro.sketch import validate_prune_threshold
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`OrionService` (CLI ``serve`` flags).

    ``max_inflight`` queries execute concurrently (each on its own worker
    thread, all feeding the shared worker pool); up to ``queue_depth``
    more wait in the bounded admission queue; beyond that, load is shed.
    The ``breaker_*`` knobs configure each database's circuit breaker.
    ``prune_threshold`` (``None`` = leave each search's own setting alone)
    overrides sketch-based shard pruning on every served search — see
    :mod:`repro.sketch` and ``OrionSearch(prune_threshold=...)``.
    ``reap_on_start`` runs :func:`repro.mapreduce.shm.reap_orphan_planes`
    during :meth:`OrionService.start`, reclaiming ``/dev/shm`` segments a
    crashed previous replica left behind before this one publishes or
    attaches its planes.
    """

    max_inflight: int = 4
    queue_depth: int = 16
    breaker_failures: int = 5
    breaker_reset_seconds: float = 30.0
    breaker_probes: int = 1
    prune_threshold: Optional[float] = None
    reap_on_start: bool = True

    def __post_init__(self) -> None:
        if self.max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {self.max_inflight}"
            )
        if self.queue_depth <= 0:
            raise ValueError(
                f"queue_depth must be positive, got {self.queue_depth}"
            )
        object.__setattr__(
            self,
            "prune_threshold",
            validate_prune_threshold(self.prune_threshold),
        )


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
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_circuit_open: int = 0
    rejected_empty_query: int = 0
    latencies: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Sketch-pruning totals across completed queries (see
    #: :mod:`repro.sketch`): shards actually searched, shards skipped, and
    #: (fragment × shard) map tasks never dispatched. All zero when
    #: pruning is off.
    shards_searched: int = 0
    shards_pruned: int = 0
    pruned_map_tasks: int = 0
    #: Shared-plane lifecycle totals across completed queries (see
    #: :mod:`repro.mapreduce.shm`): how many ran with a plane this replica
    #: published vs. attached from another process, and how many fell back
    #: to the in-process database path. Replica sharing and degradation are
    #: directly observable here.
    plane_created: int = 0
    plane_attached: int = 0
    plane_fallback: int = 0

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
    fragment_length: Optional[int]
    database: str
    future: "asyncio.Future[OrionResult]"
    admitted_at: float


class OrionService:
    """Serve Orion queries concurrently over persistent worker pools.

    Parameters
    ----------
    searches:
        One :class:`OrionSearch`, or a mapping of database name to search
        for a multi-database service. Each database gets its own circuit
        breaker; all share the admission queue and in-flight budget.
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
        searches: Union[OrionSearch, Mapping[str, OrionSearch]],
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if isinstance(searches, OrionSearch):
            searches = {searches.database.name: searches}
        if not searches:
            raise ValueError("OrionService needs at least one search to serve")
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self._searches: Dict[str, OrionSearch] = dict(searches)
        self._default_database = (
            next(iter(self._searches)) if len(self._searches) == 1 else None
        )
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                failure_threshold=self.config.breaker_failures,
                reset_timeout=self.config.breaker_reset_seconds,
                half_open_probes=self.config.breaker_probes,
                clock=clock,
            )
            for name in self._searches
        }
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

    @property
    def databases(self) -> Tuple[str, ...]:
        return tuple(self._searches)

    def breaker_for(self, database: str) -> CircuitBreaker:
        """The named database's circuit breaker (tests and introspection)."""
        return self._breakers[database]

    async def start(self) -> None:
        """Spawn the worker coroutines and their thread pool (idempotent)."""
        if self._state == "running":
            return
        if self._state in ("draining", "closed"):
            raise ServiceClosedError("cannot restart a drained service")
        # Warm every search now, while this is still effectively a
        # single-threaded process: the shared plane is published and the
        # pool's workers are forked before any query thread exists.
        # Deferring this to the first queries would fork the workers
        # while sibling threads run — a forked child can inherit a lock
        # held at that instant and deadlock (see WorkerPool.prewarm).
        if self.config.reap_on_start:
            # Reclaim any plane a crashed previous replica orphaned before
            # warmup publishes (or attaches) this replica's planes.
            from repro.mapreduce.shm import reap_orphan_planes

            reap_orphan_planes()
        if self.config.prune_threshold is not None:
            for search in self._searches.values():
                search.prune_threshold = self.config.prune_threshold
        for search in self._searches.values():
            warmup = getattr(search, "warmup", None)
            if callable(warmup):
                warmup()
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
        """Stop admitting; wait for every admitted query to complete."""
        if self._state == "running":
            self._state = "draining"
        if self._state == "draining":
            await self._queue.join()

    async def aclose(self) -> None:
        """Drain, stop the workers, and release every search's resources.

        Admitted work is never shed: the queue is drained to completion
        before the workers stop. Each search's shared-memory database
        plane and persistent worker pool are released (``/dev/shm`` is
        left clean); the searches rebuild both transparently if reused.
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
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        for search in self._searches.values():
            search.close()

    async def __aenter__(self) -> "OrionService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    async def submit(
        self,
        query: SequenceRecord,
        database: Optional[str] = None,
        fragment_length: Optional[int] = None,
    ) -> OrionResult:
        """Admit one query and await its result.

        Raises the typed admission errors on overload,
        :class:`~repro.core.orion.EmptyQueryError` for a zero-length query
        and ``ValueError`` for a ``fragment_length`` that is not positive
        — see the module docstring for the order. Unlike ``run_many``, duplicate
        ``seq_id`` submissions are fine: every submission resolves to its
        own result object.
        """
        if self._state != "running":
            raise ServiceClosedError(
                f"service is {self._state}; no new queries admitted"
            )
        if database is None:
            if self._default_database is None:
                raise UnknownDatabaseError("<unspecified>", self.databases)
            database = self._default_database
        if database not in self._searches:
            raise UnknownDatabaseError(database, self.databases)
        if len(query) == 0:
            self.stats.rejected_empty_query += 1
            raise EmptyQueryError(query.seq_id)
        if fragment_length is not None:
            check_positive("fragment_length", fragment_length)
        # Shed *before* touching the breaker: a rejected query must not
        # consume a half-open probe slot. full() → put_nowait is race-free
        # on the single-threaded event loop (no await in between).
        if self._queue.full():
            self.stats.rejected_queue_full += 1
            raise QueueFullError(self.config.queue_depth)
        if not self._breakers[database].allow():
            self.stats.rejected_circuit_open += 1
            raise CircuitOpenError(database)
        admission = _Admission(
            query=query,
            fragment_length=fragment_length,
            database=database,
            future=asyncio.get_running_loop().create_future(),
            admitted_at=self._clock(),
        )
        self._queue.put_nowait(admission)
        self.stats.submitted += 1
        return await admission.future

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _run_one(self, admission: _Admission) -> OrionResult:
        """Execute one admitted query (worker thread; blocking)."""
        search = self._searches[admission.database]
        return search.run(
            admission.query, fragment_length=admission.fragment_length
        )

    async def _worker(self) -> None:
        """One in-flight slot: pull admissions, run them on a thread."""
        loop = asyncio.get_running_loop()
        # Not a retry loop: each iteration serves a *different* admission,
        # and a failure is delivered to that submitter's future (and the
        # breaker), never swallowed. The loop ends by cancellation.
        while True:  # orionlint: disable=ORL009
            admission = await self._queue.get()
            breaker = self._breakers[admission.database]
            try:
                result = await loop.run_in_executor(
                    self._threads, self._run_one, admission
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
                breaker.record_failure()
                self.stats.failed += 1
                if not admission.future.done():
                    admission.future.set_exception(exc)
            else:
                breaker.record_success()
                self.stats.completed += 1
                self.stats.latencies.record(
                    self._clock() - admission.admitted_at
                )
                # getattr: stub searches in tests return bare objects
                # without pruning counters.
                self.stats.shards_searched += getattr(
                    result, "shards_searched", 0
                )
                self.stats.shards_pruned += getattr(result, "shards_pruned", 0)
                self.stats.pruned_map_tasks += getattr(
                    result, "pruned_map_tasks", 0
                )
                self.stats.plane_created += getattr(result, "plane_created", 0)
                self.stats.plane_attached += getattr(
                    result, "plane_attached", 0
                )
                self.stats.plane_fallback += getattr(
                    result, "plane_fallback", 0
                )
                if not admission.future.done():
                    admission.future.set_result(result)
            self._queue.task_done()
