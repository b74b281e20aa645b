"""OrionSearch — the top-level fine-grained parallel search API.

Implements the paper's architecture (Fig. 4) end to end on this package's
substrates: the query is fragmented with the Eq.-1 overlap, the database is
sharded with mpiBLAST's own sharder, (fragment × shard) map tasks run the
boundary-aware BLAST engine, a keyed reduce aggregates partial alignments,
and one in-process sort orders the report. Results are exactly serial
BLAST's (the 100%-accuracy claim; integration-tested), while the work units
are small and uniform — the source of Orion's parallelism and load balance.
"""

from __future__ import annotations

import threading
import warnings
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blast.engine import BlastEngine
from repro.blast.hsp import PLUS_STRAND, Alignment
from repro.blast.params import BlastParams
from repro.blast.statistics import SearchSpace
from repro.core.aggregator import AggregationStats, aggregate_subject_alignments
from repro.core.boundary import options_for_fragment
from repro.core.fragmenter import QueryFragment, fragment_query, suggest_fragment_length
from repro.core.overlap import overlap_length
from repro.core.results import FragmentAlignment, OrionResult, reduce_task_seconds
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.faults import FaultInjector, RetryPolicy
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import (
    Executor,
    SerialExecutor,
    WorkerPool,
    resolve_executor,
)
from repro.mapreduce.types import InputSplit, JobResult
from repro.mpiblast.formatdb import DatabaseShard, shard_database
from repro.sequence.alphabet import reverse_complement
from repro.sketch import ShardSketchIndex, validate_prune_threshold
from repro.sequence.records import Database, SequenceRecord
from repro.units import WorkUnit, WorkUnitRecord
from repro.util.timers import Stopwatch
from repro.util.validation import check_positive


#: Per-process store of subject k-mer indexes, keyed by database fingerprint
#: (so it survives pickling: every unpickled copy of the same search resolves
#: to the same store). This is what keeps a persistent worker's caches warm
#: across queries — each query ships a fresh job pickle, but the indexes the
#: previous query built (or sliced out of the shared plane) are still here.
#: Entries are built *lazily per shard*: a worker only ever indexes the
#: sequences of shards its map tasks actually touch. Bounded, least recently
#: used database first out: a process that searches many databases in turn
#: must not pin every past database's indexes.
_KMER_STORES: OrderedDict[
    Tuple[str, int, str], Dict[str, Tuple[np.ndarray, np.ndarray]]
] = OrderedDict()
_KMER_STORE_LIMIT = 4
_KMER_STORES_LOCK = threading.Lock()


def parallel_sort_alignments(alignments: Sequence[Alignment]) -> List[Alignment]:
    """Order alignments into the report: :meth:`Alignment.sort_key` order.

    The paper sorts results with a Hadoop sample-sort job (Section IV-D). A
    report is a few dozen alignments, so they are sorted in one local call;
    :func:`repro.core.results.orion_phases` replays the paper's sort
    reducers from this call's measured duration. :meth:`OrionSearch.assemble`
    calls it through this module's namespace, where the perf ledger's shim
    rebinds it.
    """
    return sorted(alignments, key=Alignment.sort_key)


class EmptyQueryError(ValueError):
    """A zero-length query: there is nothing to fragment or to score.

    The caller's mistake, not the search's — :class:`OrionService` turns it
    away at admission so it never counts against the database's breaker.
    """

    def __init__(self, query_id: str) -> None:
        super().__init__(f"query {query_id!r} is empty (zero bases)")
        self.query_id = query_id


@dataclass(frozen=True)
class QueryPlan:
    """Everything needed to execute one query, minus the executor.

    Built by :meth:`OrionSearch.prepare`; ``executor.run(job, splits)``
    produces the raw job result that :meth:`OrionSearch.assemble` turns
    into an :class:`~repro.core.results.OrionResult`. Decoupling the plan
    from execution is what lets the always-on service admit many queries'
    map tasks into one shared worker pool.
    """

    query: SequenceRecord
    space: SearchSpace
    overlap: int
    fragment_length: int
    fragments: List[QueryFragment]
    job: MapReduceJob
    splits: List[InputSplit]
    #: Sketch-pruning accounting (see :mod:`repro.sketch`): distinct shards
    #: with at least one emitted split, shards every fragment skipped, and
    #: the (fragment × shard) pairs pruned away before dispatch.
    shards_searched: int = 0
    shards_pruned: int = 0
    pruned_map_tasks: int = 0


class _OrionMapper:
    """One (fragment × shard) map task, as a picklable callable.

    Holds the search, the query's id and length and the precomputed search
    space so it can be shipped to worker processes (closures cannot be
    pickled). It holds no query codes: each split carries its fragment.
    The pickle of ``search`` omits the subject k-mer cache — each worker
    builds it lazily, only for the shards its tasks touch — and, with a
    plane leased, the database, which workers attach from the plane.
    """

    def __init__(self, search: "OrionSearch", query: SequenceRecord, space: SearchSpace):
        self.search = search
        self.query_id = query.seq_id
        self.query_length = len(query)
        self.space = space

    def __call__(self, split: InputSplit):
        fragment, shard_index = split.payload
        shard = self.search.shards[shard_index]
        return self.search._map_fragment_shard(
            self.query_id, self.query_length, fragment, shard, self.space
        )


class _OrionReducer:
    """Aggregate one (subject, strand) key's alignments in the driver.

    Returns ``(final alignments, AggregationStats)`` for the key;
    :meth:`OrionSearch.assemble` sums the stats.
    """

    def __init__(self, search: "OrionSearch", query: SequenceRecord, space: SearchSpace):
        self.search = search
        self.space = space
        self.q_codes_plus = query.codes
        self.q_codes_minus = (
            reverse_complement(query.codes) if search.strands == "both" else None
        )

    def __call__(self, key, values):
        search = self.search
        subject_id, strand = key
        q_codes = self.q_codes_plus if strand == PLUS_STRAND else self.q_codes_minus
        s_codes = search.database[subject_id].codes
        return aggregate_subject_alignments(
            values, q_codes, s_codes, search.engine, self.space
        )


class OrionSearch:
    """Fine-grained parallel BLAST over a fixed database.

    Map tasks emit ``(subject_id, strand)`` → :class:`FragmentAlignment`
    records, and each reduce key is resolved by
    :func:`repro.core.aggregator.aggregate_subject_alignments`, which
    re-searches boundary clusters so the report equals serial BLAST's. The
    driver calls it once per key and times each call; replay packs those
    times into the paper's :data:`~repro.core.results.REDUCE_TASKS` reduce
    tasks.

    Parameters
    ----------
    database:
        The reference database (sharded once, reused across queries —
        matching the paper's per-database calibration story).
    params:
        BLAST parameters (Table I defaults).
    num_shards:
        Database shards (intra-database parallelism).
    fragment_length:
        Fixed fragment length; ``None`` derives a heuristic per query (see
        :func:`repro.core.fragmenter.suggest_fragment_length`). Sweep
        :func:`repro.core.calibrate.calibrate_fragment_length` for a tuned
        value and pass it here (or to :meth:`run`) explicitly.
    speculative:
        Enable speculative gapped extension at boundaries (paper III-B1).
        Disabling it is an ablation that *loses* boundary alignments.
    drop_left_overlap:
        Map-side optimization: drop plus-strand alignments lying entirely
        inside a fragment's left overlap (the neighbour reports them). Pure
        dedup optimization — reduce-side dedup is the correctness backstop.
    strands:
        ``"plus"`` or ``"both"``.
    executor:
        MapReduce backend: ``"serial"`` (default), ``"processes"``, or any
        :class:`repro.mapreduce.runtime.Executor` instance. The serial
        default keeps per-task durations valid as simulator measurements
        (:func:`repro.core.results.replay_orion` refuses process-backed
        ones); ``"processes"`` actually runs the (fragment × shard) map
        tasks in parallel across cores, on one persistent
        :class:`~repro.mapreduce.runtime.WorkerPool` shared by every
        :meth:`run` / :meth:`run_many` call — workers keep attached database
        views and k-mer caches warm between queries. Workers reach the
        database only through a shared-memory data plane (2-bit codes +
        prebuilt k-mer indexes, one copy per machine, zero-copy worker
        views); a query that cannot lease the plane runs serially in the
        driver instead (see :meth:`run`). Call :meth:`close` (or use the
        search as a context manager) to release the pool and the plane
        promptly; an ``atexit`` backstop reclaims stragglers. Alignments
        are identical for every backend (property-tested).
    num_workers:
        Pool size for the ``"processes"`` executor (``None`` = one process
        per core).
    shuffle:
        Accepts only ``"streaming"`` and raises :class:`ValueError` for
        anything else; it selects nothing, because every executor shuffles
        and reduces in the driver. It exists only for
        ``benchmarks/ledger/workloads.py::build_search``, which still
        passes it, and goes once that caller drops it.
    retries:
        Attempt budget per map task on process-backed executors
        (CLI ``--retries``): a failed, crashed or timed-out map task is
        retried individually — on a respawned pool if the worker crash
        broke it — instead of rerunning the whole job serially. ``1``
        restores the old fail-straight-to-serial behaviour. Alignments
        are identical regardless (tasks are pure; property-tested under
        injected faults).
    task_timeout:
        Optional per-attempt deadline in seconds (CLI ``--task-timeout``),
        the one straggler mechanism: a straggling attempt past it is
        retried, though it may still win if it finishes first. An
        attempt's age counts from its submit, so the deadline includes
        its wait in the pool's queue behind this query's other tasks (and,
        under the service, behind other queries' tasks): size it above a
        whole query's wall, not one task's, or healthy queued tasks spend
        their attempt budget.
    fault_injector:
        Optional :class:`repro.mapreduce.faults.FaultInjector` threaded
        into every map attempt (tests/benchmarks only).
    prune_threshold:
        Sketch-based shard pruning (see :mod:`repro.sketch`): ``None``
        (default) emits every (fragment × shard) map task unconditionally
        and never probes; a float in ``[0, 1]`` probes each fragment
        against per-shard bottom-k k-mer sketches and emits tasks only
        for shards whose estimated containment is ``>= prune_threshold``.
        ``0.0`` probes but keeps everything (the byte-identical sanity
        setting); :data:`repro.sketch.DEFAULT_PRUNE_THRESHOLD` is the
        benchmark-gated default for callers that opt in. E-value
        statistics stay whole-database either way (``stats_space``), so
        surviving alignments score identically to the unpruned run.
    """

    def __init__(
        self,
        database: Database,
        params: Optional[BlastParams] = None,
        num_shards: int = 16,
        fragment_length: Optional[int] = None,
        speculative: bool = True,
        drop_left_overlap: bool = True,
        strands: str = "plus",
        executor: Union[str, Executor, None] = "serial",
        num_workers: Optional[int] = None,
        shuffle: str = "streaming",
        retries: int = 3,
        task_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        prune_threshold: Optional[float] = None,
    ) -> None:
        check_positive("num_shards", num_shards)
        check_positive("retries", retries)
        if strands not in ("plus", "both"):
            raise ValueError(f"strands must be 'plus' or 'both', got {strands!r}")
        if fragment_length is not None:
            check_positive("fragment_length", fragment_length)
        if shuffle != "streaming":
            raise ValueError(f"shuffle must be 'streaming', got {shuffle!r}")
        self.database = database
        self.engine = BlastEngine(params)
        self.params = self.engine.params
        self._num_shards = num_shards
        self.shards: List[DatabaseShard] = shard_database(database, num_shards)
        self.fragment_length = fragment_length
        self.speculative = speculative
        self.drop_left_overlap = drop_left_overlap
        self.strands = strands
        self.retry_policy = RetryPolicy(max_attempts=retries, task_timeout=task_timeout)
        self.fault_injector = fault_injector
        self.executor: Executor = resolve_executor(
            executor,
            num_workers,
            retry=self.retry_policy,
            injector=fault_injector,
        )
        # Guards lazy creation of the shared plane and the sketch index: the
        # always-on service calls run() from one thread per in-flight query,
        # and exactly one plane lease must ever exist per search.
        self._setup_lock = threading.Lock()
        self._lease: Optional[shm_mod.PlaneLease] = None
        self._db_view: Optional[shm_mod.SharedDatabaseView] = None
        # Plane lifecycle observability, stamped onto every OrionResult:
        # "created" / "attached" after _ensure_plane wins a lease,
        # "fallback" (with the reason) when it degrades to in-process.
        self._plane_mode: str = ""
        self._plane_fallback_reason: Optional[str] = None
        self.prune_threshold = validate_prune_threshold(prune_threshold)
        self._sketch_index: Optional[ShardSketchIndex] = None
        self._db_key = (
            database.name,
            self.params.k,
            shm_mod.database_fingerprint(database),
        )

    # ------------------------------------------------------------------ #

    def overlap_for_query(self, query: SequenceRecord) -> Tuple[int, SearchSpace]:
        """The Eq.-1 overlap and the effective search space for a query."""
        space = self.engine.search_space(
            len(query), self.database.total_length, self.database.num_sequences
        )
        return overlap_length(self.engine.ka, self.params, space), space

    def _kmer_store(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """This process's subject k-mer index store for this database."""
        with _KMER_STORES_LOCK:
            store = _KMER_STORES.setdefault(self._db_key, {})
            _KMER_STORES.move_to_end(self._db_key)
            while len(_KMER_STORES) > _KMER_STORE_LIMIT:
                _KMER_STORES.popitem(last=False)
            return store

    def _kmer_cache_for_shard(
        self, shard: DatabaseShard
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Subject k-mer indexes covering ``shard``, built lazily.

        Only sequences of shards a process actually maps are ever indexed
        (the shard-scoped cache the many-query pool depends on). With a
        shared plane attached the "build" is a handful of zero-copy array
        slices; otherwise each missing sequence is indexed in-process. The
        returned dict is the module-level store itself — a superset is fine
        (the engine looks subjects up by id) and sharing it keeps indexes
        warm across shards, queries and jobs.
        """
        store = self._kmer_store()
        missing = [rec.seq_id for rec in shard.database if rec.seq_id not in store]
        if missing:
            if self._db_view is not None:
                store.update(self._db_view.kmer_cache_for(missing))
            else:
                from repro.blast.lookup import sorted_kmers

                for seq_id in missing:
                    codes = self.database[seq_id].codes
                    store[seq_id] = sorted_kmers(codes, self.params.k)
        return store

    # ------------------------------------------------------------------ #
    # process-pool + shared-plane support
    # ------------------------------------------------------------------ #

    def _ensure_plane(self) -> None:
        """Lease the machine-wide plane on first (process-backed) use.

        Goes through :meth:`shm.PlaneRegistry.attach_or_create`, so two
        searches (or service replicas) for the same database on one host
        share a single set of segments, and a crashed previous session's
        orphans are reaped on the way in. When the plane is corrupt while
        other holders pin it, or shm (or ``flock``) is unusable, the search
        degrades — never fails the query: :meth:`run` executes queries
        serially in the driver and stamps the reason onto every result.
        The failure is sticky until :meth:`close`, so a degraded search
        does not retry the registry on every query; the first run after
        ``close`` retries the lease.

        Thread-safe: concurrent :meth:`run` calls race to first use and
        exactly one lease is held per search (a loser's duplicate would
        leak a hold that ``close`` never releases).
        """
        if self.executor.kind != "processes" or self._lease is not None:
            return  # in-process backends read self.database directly
        with self._setup_lock:
            if self._lease is not None or self._plane_mode == "fallback":
                return
            try:
                # Held on self for the search's lifetime; close() releases.
                lease = shm_mod.PlaneRegistry.attach_or_create(  # orionlint: disable=ORL010
                    self.database,
                    self.params.k,
                    injector=self.fault_injector,
                )
            except (
                shm_mod.PlaneCorruptError,
                shm_mod.SharedMemoryUnavailable,
                OSError,
            ) as exc:
                warnings.warn(
                    f"could not lease the shared database plane ({exc}); "
                    f"falling back to a serial search in the driver",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self._plane_mode = "fallback"
                self._plane_fallback_reason = f"{type(exc).__name__}: {exc}"
                return
            self._lease = lease
            self._plane_mode = "created" if lease.created else "attached"
            self._plane_fallback_reason = None

    def _query_executor(self) -> Executor:
        """The executor a query runs on: this search's own, or the serial
        oracle in the driver when a process-backed search has no plane —
        workers never get the database any other way."""
        if self._plane_mode == "fallback":
            return SerialExecutor()
        return self.executor

    def _ensure_sketch_index(self) -> ShardSketchIndex:
        """Build the per-shard sketch index on first pruned ``prepare``.

        With a plane leased, each sequence is sketched from the plane's
        sorted k-mer keys (read through a transient view; the index owns
        its arrays, so it outlives the plane); otherwise from its codes.
        Both give bit-identical sketches, so pruning decisions do not
        depend on the executor or on whether the plane was leased.
        Thread-safe.
        """
        if self._sketch_index is not None:
            return self._sketch_index
        self._ensure_plane()
        with self._setup_lock:
            if self._sketch_index is not None:
                return self._sketch_index
            if self._lease is None:
                self._sketch_index = ShardSketchIndex.build(self.shards, self.params.k)
                return self._sketch_index
            handle = self._lease.handle
            view = shm_mod.attach_view(handle)
            try:
                self._sketch_index = ShardSketchIndex.build(
                    self.shards,
                    self.params.k,
                    kmer_cache=view.kmer_cache_for(handle.seq_ids),
                )
            finally:
                view.close()
            return self._sketch_index

    def warmup(self) -> None:
        """Eagerly build what ``run`` would build lazily (thread-safety).

        For a process-backed search this publishes the shared database
        plane and starts every worker process *now*. Lazy creation is fine
        single-threaded, but a concurrent driver (the service) would
        otherwise fork the first workers while sibling query threads are
        mid-flight — and forking a multi-threaded process can hand the
        child a lock another thread held at that instant, deadlocking it.
        :meth:`OrionService.start` calls this from its quiescent startup
        moment. No-op for in-process executors.
        """
        if isinstance(self.executor, WorkerPool):
            self._ensure_plane()
            self.executor.prewarm()
        if self.prune_threshold is not None:
            self._ensure_sketch_index()

    def __getstate__(self):
        """Pickle for worker shipment: no executor (workers run tasks, they
        never dispatch) and no lease — with a plane leased, the pickle
        names it by ``(digest, generation)`` and carries no database or
        shards: workers read the plane's handle from its registry and
        rebuild both zero-copy from the attached view. An in-process search
        keeps its database (the sanitizer's fingerprint pickles it)."""
        state = self.__dict__.copy()
        lease = state.pop("_lease")  # leases are per-process claims, never shipped
        state["executor"] = None
        state["_db_view"] = None
        state["_sketch_index"] = None  # driver-side; workers never prepare()
        state["_setup_lock"] = None  # locks don't pickle; workers get a fresh one
        state["_plane"] = None
        if lease is not None:
            state["_plane"] = (lease.digest, lease.generation)
            state["database"] = None
            state["shards"] = None
        return state

    def __setstate__(self, state):
        plane = state.pop("_plane")
        self.__dict__.update(state)
        self._lease = None
        self._setup_lock = threading.Lock()
        self.executor = SerialExecutor()
        if plane is not None:
            # One attachment per plane per process, kept warm across jobs.
            view = shm_mod.attach_cached_view(*plane)
            self._db_view = view
            self.database = view.database()
            self.shards = shm_mod.cached_shards(*plane, self._num_shards)

    def close(self) -> None:
        """Release the worker pool and the plane lease (idempotent).

        The next :meth:`run` transparently rebuilds both, retrying the
        lease even after a plane fallback (a
        :class:`WorkerPool` passed in as ``executor`` is shut down too and
        restarts the same way); use the search as a context manager for
        prompt cleanup in many-query scripts. The pool goes first, so no
        forked worker still shares the lease's lock when it is released.
        If this was the plane's last lease, releasing it unlinks the segments
        machine-wide (see :class:`shm.PlaneLease`).
        """
        with self._setup_lock:
            lease, self._lease = self._lease, None
            self._plane_mode = ""
            self._plane_fallback_reason = None
        if isinstance(self.executor, WorkerPool):
            self.executor.shutdown()
        if lease is not None:
            lease.release()

    def __enter__(self) -> "OrionSearch":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # orionlint: disable=ORL006
            # Interpreter teardown: the shm/pool modules may already be
            # gone; the atexit plane registry is the backstop then.
            pass

    def _resolve_fragment_length(
        self, query: SequenceRecord, overlap: int, override: Optional[int]
    ) -> int:
        if override is not None:
            check_positive("fragment_length", override)
            return override
        if self.fragment_length is not None:
            return self.fragment_length
        return suggest_fragment_length(
            query_length=len(query),
            overlap=overlap,
            num_shards=len(self.shards),
            total_slots=64,
        )

    # ------------------------------------------------------------------ #
    # map side
    # ------------------------------------------------------------------ #

    def _map_fragment_shard(
        self,
        query_id: str,
        qlen: int,
        fragment: QueryFragment,
        shard: DatabaseShard,
        space: SearchSpace,
    ) -> List[Tuple[Tuple[str, int], FragmentAlignment]]:
        """Run one (fragment, shard) work unit; emit keyed fragment alignments.

        Needs only the query's id and length (``qlen``): the fragment
        carries its own codes.
        """
        options = options_for_fragment(
            fragment, speculative=self.speculative, strands=self.strands
        )
        res = self.engine.search(
            fragment.record, shard.database,
            options=options, stats_space=space, strands=self.strands,
            subject_kmer_cache=self._kmer_cache_for_shard(shard),
        )
        flen = fragment.length
        margin = options.boundary_margin
        out: List[Tuple[Tuple[str, int], FragmentAlignment]] = []
        for aln in res.alignments:
            if aln.strand == PLUS_STRAND:
                offset = fragment.offset
                left_interior = not fragment.is_first
                right_interior = not fragment.is_last
            else:
                # rc(fragment) occupies [qlen - end, qlen - offset) of rc(query)
                offset = qlen - fragment.end
                left_interior = not fragment.is_last
                right_interior = not fragment.is_first
            partial_left = left_interior and aln.q_start < margin
            partial_right = right_interior and aln.q_end > flen - margin
            if (
                self.drop_left_overlap
                and aln.strand == PLUS_STRAND
                and left_interior
                and aln.q_end <= fragment.overlap
            ):
                # Entirely inside the left overlap: the previous fragment
                # sees (and reports) the whole alignment (paper III-B1).
                continue
            shifted = replace(aln.shifted(q_offset=offset), query_id=query_id)
            out.append(
                (
                    (aln.subject_id, aln.strand),
                    FragmentAlignment(
                        alignment=shifted,
                        fragment_index=fragment.index,
                        partial_left=partial_left,
                        partial_right=partial_right,
                    ),
                )
            )
        return out

    # ------------------------------------------------------------------ #

    def prepare(
        self,
        query: SequenceRecord,
        fragment_length: Optional[int] = None,
    ) -> "QueryPlan":
        """Plan one query: fragments, the MapReduce job, and its splits.

        Pure with respect to execution — no tasks run, no pool is touched —
        so the always-on service can plan admissions cheaply and submit the
        resulting job whenever capacity allows. (With ``prune_threshold``
        set, the first call does build the per-shard sketch index, from
        the shared plane's sorted k-mer keys when the plane is already up —
        :meth:`warmup` front-loads that.) Feed the plan to an executor
        (``executor.run(plan.job, plan.splits)``) and hand the raw job
        result to :meth:`assemble`; :meth:`run` is exactly that
        composition. Raises :class:`EmptyQueryError` for a zero-length query
        and ``ValueError`` for a ``fragment_length`` override that is not
        positive.
        """
        if len(query) == 0:
            raise EmptyQueryError(query.seq_id)
        overlap, space = self.overlap_for_query(query)
        frag_len = self._resolve_fragment_length(query, overlap, fragment_length)
        if frag_len <= overlap:
            frag_len = overlap + max(1, overlap)
        fragments = fragment_query(query, frag_len, overlap)
        job = MapReduceJob(
            mapper=_OrionMapper(self, query, space),
            reducer=_OrionReducer(self, query, space),
            name=f"orion/{query.seq_id}",
        )
        # Payloads carry the shard *index*, not the shard: process workers
        # attach the sharded database from the plane, so tasks only move a
        # fragment descriptor.
        pairs = self._plan_pairs(fragments)
        splits = [InputSplit(index=i, payload=pair) for i, pair in enumerate(pairs)]
        searched = {shard_index for _, shard_index in pairs}
        return QueryPlan(
            query=query,
            space=space,
            overlap=overlap,
            fragment_length=frag_len,
            fragments=fragments,
            job=job,
            splits=splits,
            shards_searched=len(searched),
            shards_pruned=len(self.shards) - len(searched),
            pruned_map_tasks=len(fragments) * len(self.shards) - len(pairs),
        )

    def _plan_pairs(
        self, fragments: List[QueryFragment]
    ) -> List[Tuple[QueryFragment, int]]:
        """The (fragment, shard index) pairs to dispatch as map tasks.

        With ``prune_threshold`` unset this is the full cross product.
        Otherwise each fragment probes the per-shard sketch index and only
        shards whose estimated k-mer containment clears the threshold get a
        task; for ``strands="both"`` the fragment's reverse complement is
        probed too (minus-strand alignments match the subject through rc
        k-mers) and the larger estimate decides. The probe errs toward
        keeping (see :func:`repro.sketch.containment`), and E-value
        statistics are whole-database regardless, so surviving alignments
        are byte-identical to the unpruned run's.
        """
        if self.prune_threshold is None:
            return [(f, s.index) for f in fragments for s in self.shards]
        index = self._ensure_sketch_index()
        pairs: List[Tuple[QueryFragment, int]] = []
        for fragment in fragments:
            cont = index.probe(fragment.record.codes)
            if self.strands == "both":
                cont = np.maximum(
                    cont, index.probe(reverse_complement(fragment.record.codes))
                )
            for shard in self.shards:
                if cont[shard.index] >= self.prune_threshold:
                    pairs.append((fragment, shard.index))
        return pairs

    def assemble(
        self,
        plan: "QueryPlan",
        mr: JobResult,
        mapreduce_wall: float,
    ) -> OrionResult:
        """Turn a plan's raw MapReduce output into an :class:`OrionResult`.

        The second half of :meth:`run`: collects each key's alignments and
        sums its aggregation stats, sorts the alignments into report order
        in this thread (timed as ``sort_seconds``; see
        :func:`parallel_sort_alignments`), packs the per-key reduce times
        into the paper's reduce tasks, and attaches the measured work-unit
        records. Deterministic given the same plan and job result,
        so a service thread may assemble one query's result while another
        query's tasks are still in flight.
        """
        query = plan.query
        agg_stats = AggregationStats()
        aggregated: List[Alignment] = []
        for _key, (finals, stats) in mr.outputs:
            aggregated.extend(finals)
            agg_stats.merge(stats)
        sort_watch = Stopwatch().start()
        ordered = parallel_sort_alignments(aggregated)
        sort_seconds = sort_watch.stop()
        records: List[WorkUnitRecord] = []
        for split, rec in zip(plan.splits, mr.map_records()):
            fragment, shard_index = split.payload
            unit = WorkUnit(
                query_id=query.seq_id,
                shard_index=shard_index,
                fragment_index=fragment.index,
                query_span=fragment.length,
                subject_span=self.shards[shard_index].total_length,
            )
            records.append(
                WorkUnitRecord(
                    unit=unit,
                    measured_seconds=rec.duration,
                    alignments=rec.output_records,
                    simulator_safe=rec.simulator_safe,
                    attempts=rec.attempts,
                    winner=rec.winner,
                    fallback_reason=rec.fallback_reason,
                )
            )

        return OrionResult(
            query_id=query.seq_id,
            alignments=ordered,
            map_records=records,
            reduce_seconds=reduce_task_seconds(
                [key for key, _ in mr.outputs],
                [r.duration for r in mr.reduce_records()],
            ),
            sort_seconds=sort_seconds,
            fragment_length=plan.fragment_length,
            overlap=plan.overlap,
            num_fragments=len(plan.fragments),
            num_shards=len(self.shards),
            merged_pairs=agg_stats.merged_pairs,
            dropped_partials=agg_stats.dropped_partials,
            executor_kind=self._query_executor().kind,
            simulator_safe=all(r.simulator_safe for r in mr.records),
            mapreduce_wall_seconds=mapreduce_wall,
            shards_searched=plan.shards_searched,
            shards_pruned=plan.shards_pruned,
            pruned_map_tasks=plan.pruned_map_tasks,
            plane_created=1 if self._plane_mode == "created" else 0,
            plane_attached=1 if self._plane_mode == "attached" else 0,
            plane_fallback=1 if self._plane_mode == "fallback" else 0,
            plane_fallback_reason=self._plane_fallback_reason,
        )

    def run(
        self,
        query: SequenceRecord,
        fragment_length: Optional[int] = None,
    ) -> OrionResult:
        """Search one query; returns measured records only.

        ``prepare → execute → assemble``, decoupled so the always-on
        service (:mod:`repro.service`) can interleave many queries' task
        submissions on one shared :class:`WorkerPool` while keeping each
        query's result byte-identical to calling :meth:`run` alone —
        property-tested. Safe to call concurrently from multiple threads.

        A process-backed search whose plane lease failed runs the query on
        a :class:`SerialExecutor` here in the driver: slower, never wrong —
        serial is the oracle. The result says so (``executor_kind ==
        "serial"``, ``plane_fallback == 1`` and its reason).
        """
        # Plane first: with pruning enabled, prepare()'s sketch index can
        # then read the plane's sorted k-mer keys instead of re-deriving
        # them from the codes.
        self._ensure_plane()
        plan = self.prepare(query, fragment_length)
        mr_wall = Stopwatch().start()
        mr = self._query_executor().run(plan.job, plan.splits)
        mapreduce_wall = mr_wall.stop()
        return self.assemble(plan, mr, mapreduce_wall)

    def run_many(
        self, queries: Sequence[SequenceRecord]
    ) -> Dict[str, OrionResult]:
        """Search a query set (inter-query level of Fig. 1).

        :func:`repro.core.results.replay_orion` replays the results as one
        combined job on a modelled cluster.

        With a process-backed executor the whole set runs on one persistent
        worker pool (see ``executor``): workers stay alive between
        queries, keeping their attached shared-database views and
        shard-scoped k-mer caches warm, so per-query cost approaches pure
        search time after the first query. Call :meth:`close` (or use the
        search as a context manager) when the set is done.

        Query ``seq_id``\\ s must be unique: results are keyed by id, so a
        collision would silently keep only the last query's result. Sets
        with duplicate ids are rejected up front with a :class:`ValueError`
        naming the colliding ids (the always-on service path,
        :mod:`repro.service`, has no such constraint — every submission
        gets its own result object).
        """
        counts = Counter(q.seq_id for q in queries)
        duplicates = sorted(seq_id for seq_id, n in counts.items() if n > 1)
        if duplicates:
            raise ValueError(
                f"duplicate query seq_ids in run_many: {duplicates}; results "
                f"are keyed by seq_id, so duplicates would be silently "
                f"dropped — rename the queries or submit them individually"
            )
        return {q.seq_id: self.run(q) for q in queries}
