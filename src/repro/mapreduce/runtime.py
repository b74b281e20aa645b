"""Executors: run a MapReduce job and measure per-task durations.

Two executors with identical result semantics (DESIGN.md row 5's
"pluggable executors"):

* :class:`SerialExecutor` — runs every task in this thread. Its per-task
  wall-clock durations are the *measurements* the cluster simulator replays
  onto modelled clusters (DESIGN.md §2: measured work, simulated scheduling).
* :class:`WorkerPool` — a process pool that persists across jobs; map and
  reduce tasks run on separate cores, which is the point of the paper's
  fine-grained work units. Each job is loaded once per worker (not per
  task). Jobs that close over unpicklable state (lambdas, local closures)
  fall back to serial execution with a warning.

The serial executor shuffles in the calling process
(:meth:`~repro.mapreduce.job.MapReduceJob.shuffle`) and is the oracle
everything else is property-tested against. The process pool's
shuffle is **streaming** and push-based: each map task partitions (and
combines) its own output worker-side, commits the per-partition pickled
runs — inline on its result when they fit in one page, spilled into a
shared-memory segment otherwise (inline again when the spill write fails) —
and the driver consumes completions as they land so reduce task *p*
launches the moment every map task that can write partition *p* has
committed — Hadoop's reduce slowstart, per partition. See
:class:`ShuffleService`.

The process pool is fault tolerant (DESIGN.md §4.6): every map and
reduce task runs as a sequence of *attempts* under a
:class:`~repro.mapreduce.faults.RetryPolicy` driven by the
:class:`~repro.mapreduce.scheduler.TaskScheduler`. A failed attempt
(exception, crashed worker, missed deadline) retries that one task with
backoff instead of poisoning the job; a crashed worker breaks the pool,
which is respawned once and only the uncommitted tasks re-dispatched —
committed results, including streaming-shuffle spill runs already sitting
in shared memory, are kept. Optional Hadoop-style speculative execution
duplicates the slowest straggler near the end of a phase (first commit
wins). All of it is exercised deterministically by threading a
:class:`~repro.mapreduce.faults.FaultInjector` through the pool. The
whole-job serial fallback remains only as the last resort after a task
exhausts its attempt budget.

All executors return the same :class:`~repro.mapreduce.types.JobResult` for
the same job and splits, independent of scheduling order: map outputs are
ordered by split index and reducer outputs by partition index before the
shuffle/result assembly, so results are deterministic end to end — tasks
are pure functions of their split, so retried and speculative attempts
cannot change the output either. Every
:class:`~repro.mapreduce.types.TaskRecord` is tagged with the executor kind
that produced it; only serial records are ``simulator_safe``.
"""

from __future__ import annotations

import hashlib
import mmap
import multiprocessing
import os
import pickle
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Protocol, Sequence, Tuple, Union

from repro.mapreduce import shm as shm_mod
from repro.mapreduce.faults import FaultInjector, RetryPolicy, TaskFailedError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.scheduler import TaskMeta, TaskScheduler
from repro.mapreduce.types import InputSplit, JobResult, TaskKind, TaskRecord
from repro.util.timers import Stopwatch

#: The executor kinds :func:`resolve_executor` (and the CLI) accept.
EXECUTOR_KINDS = ("serial", "processes")


def _payload_records(payload: Any) -> int:
    """How many input records a split payload carries.

    A ``list`` payload is a batch of records; anything
    else — e.g. Orion's ``(fragment, shard)`` descriptor tuple — is one
    logical record.
    """
    if isinstance(payload, list):
        return len(payload)
    return 1


def _measure_map(
    job: MapReduceJob,
    split: InputSplit,
    executor: str = "serial",
) -> Tuple[List[Tuple[Any, Any]], TaskRecord]:
    sw = Stopwatch().start()
    pairs = job.run_map_task(split)
    dur = sw.stop()
    rec = TaskRecord(
        task_id=f"{job.name}/map/{split.index:05d}",
        kind=TaskKind.MAP,
        duration=dur,
        input_records=_payload_records(split.payload),
        output_records=len(pairs),
        executor=executor,
    )
    return pairs, rec


def _measure_reduce(
    job: MapReduceJob,
    partition_index: int,
    groups: Sequence[Tuple[Any, List[Any]]],
    executor: str = "serial",
) -> Tuple[List[Any], TaskRecord]:
    sw = Stopwatch().start()
    out = job.run_reduce_task(groups)
    dur = sw.stop()
    rec = TaskRecord(
        task_id=f"{job.name}/reduce/{partition_index:05d}",
        kind=TaskKind.REDUCE,
        duration=dur,
        input_records=sum(len(v) for _, v in groups),
        output_records=len(out),
        executor=executor,
    )
    return out, rec


def _assemble(
    job: MapReduceJob,
    partitions: Sequence[Sequence[Tuple[Any, List[Any]]]],
    outputs: List[List[Any]],
    records: List[TaskRecord],
) -> JobResult:
    distinct = len({key for part in partitions for key, _ in part})
    return JobResult(outputs=outputs, records=records, shuffle_keys=distinct)


class Executor(Protocol):
    """What OrionSearch plugs in.

    ``kind`` names the backend (``"serial"``, ``"processes"``) and is
    stamped onto every task record the executor produces, so downstream
    consumers (the cluster simulator above all) can tell trustworthy serial
    measurements from ones taken under machine load.
    """

    kind: str

    def run(self, job: MapReduceJob, splits: Sequence[InputSplit]) -> JobResult:
        ...


class SerialExecutor:
    """Run all tasks sequentially in the calling thread."""

    kind = "serial"

    def run(self, job: MapReduceJob, splits: Sequence[InputSplit]) -> JobResult:
        map_outputs: List[List[Tuple[Any, Any]]] = []
        records: List[TaskRecord] = []
        for split in splits:
            pairs, rec = _measure_map(job, split, executor=self.kind)
            map_outputs.append(pairs)
            records.append(rec)
        partitions = job.shuffle(map_outputs, splits)
        outputs: List[List[Any]] = []
        for p, groups in enumerate(partitions):
            out, rec = _measure_reduce(job, p, groups, executor=self.kind)
            outputs.append(out)
            records.append(rec)
        return _assemble(job, partitions, outputs, records)


# --------------------------------------------------------------------------- #
# streaming shuffle
# --------------------------------------------------------------------------- #

#: Where one reduce task finds one map task's partition-p run: the pickled
#: run bytes themselves (sub-page outputs, and failed spill writes), or a
#: ``(segment_name, start, length)`` triple into a shared-memory spill
#: segment. An empty run is ``b""`` / length 0 — never pickled, never
#: attached.
_RunLocator = Union[bytes, Tuple[str, int, int]]

#: The page rule: a map output whose pickled runs total at most this many
#: bytes commits inline, and so does a job blob this small. A segment
#: occupies at least one page, and creating one costs an open and a write,
#: every reader an open and a ``pread``, and the driver an unlink — all to
#: move bytes that fit in the message the task exchanges anyway.
_INLINE_BYTES = mmap.PAGESIZE


@dataclass(frozen=True)
class _RunCommit:
    """One map task's committed shuffle output.

    The run format: the map task partitions (and combines) its output
    worker-side, key-sorts each run and pickles each non-empty run
    separately. Runs totalling at most :data:`_INLINE_BYTES` ride in
    ``inline`` and ``segment`` is ``None`` — as they do when the spill
    write fails. Larger outputs concatenate the blobs into one spill
    segment — ``offsets[p]`` is the
    ``(start, length)`` of partition ``p``'s run, so a reduce task attaches
    the segment and unpickles *only its own slice*.
    """

    segment: Optional[str]
    offsets: Tuple[Tuple[int, int], ...]
    inline: Optional[Tuple[bytes, ...]]
    total_bytes: int

    def locator(self, partition_index: int) -> _RunLocator:
        if self.inline is not None:
            return self.inline[partition_index]
        assert self.segment is not None, "commit carries neither segment nor bytes"
        start, length = self.offsets[partition_index]
        return (self.segment, start, length)


def _spill_map_output(
    job: MapReduceJob,
    pairs: Sequence[Tuple[Any, Any]],
    spill_name: Optional[str],
    shm_fault: Optional[Callable[[], None]] = None,
    split: Optional[InputSplit] = None,
) -> _RunCommit:
    """Partition one map task's output and commit it (worker-side).

    Runs that fit in one page (:data:`_INLINE_BYTES`) commit inline on
    the task's result and never touch shared memory. Larger outputs write
    the concatenated per-partition run pickles into the shared segment the
    driver reserved under ``spill_name`` — the driver's
    :class:`~repro.mapreduce.shm.SpillSet` owns the unlink, so even a
    worker that dies right after creating the segment cannot leak it. Any
    ``OSError`` (``/dev/shm`` exhausted or missing, a stale segment
    squatting on the name) degrades to shipping the runs inline
    through the result pipe. ``shm_fault`` is the fault injector's hook
    into exactly that path: it fires (or not) where the real spill write
    would fail, so injected shm faults exercise the same degrade.
    ``split`` is the split behind ``pairs``; its declared partitions are
    enforced where the runs are cut.
    """
    runs = job.partition_pairs(pairs, sort_runs=True, split=split)
    blobs = [
        pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL) if run else b""
        for run in runs
    ]
    total = sum(len(b) for b in blobs)
    if total > _INLINE_BYTES and spill_name is not None:
        try:
            if shm_fault is not None:
                shm_fault()
            # The driver's SpillSet minted spill_name and sweeps it.
            shm_mod.write_segment(spill_name, blobs)  # orionlint: disable=ORL008
        except OSError:  # orionlint: disable=ORL006
            pass  # deliberate degrade: the inline commit below loses nothing
        else:
            offsets: List[Tuple[int, int]] = []
            pos = 0
            for blob in blobs:
                offsets.append((pos, len(blob)))
                pos += len(blob)
            return _RunCommit(
                segment=spill_name, offsets=tuple(offsets), inline=None,
                total_bytes=total,
            )
    return _RunCommit(segment=None, offsets=(), inline=tuple(blobs), total_bytes=total)


def _fetch_partition_runs(
    locators: Sequence[_RunLocator],
    shm_fault: Optional[Callable[[], None]] = None,
) -> Tuple[List[List[Tuple[Any, Any]]], int]:
    """Pull one partition's runs (split-index order) out of the shuffle.

    ``shm_fault`` is the fault injector's hook: it fires before each
    segment read, where a vanished segment would raise.
    """
    runs: List[List[Tuple[Any, Any]]] = []
    bytes_in = 0
    for loc in locators:
        if isinstance(loc, bytes):
            blob = loc
        elif loc[2] == 0:
            blob = b""
        else:
            if shm_fault is not None:
                shm_fault()
            blob = shm_mod.read_segment(*loc)
        bytes_in += len(blob)
        runs.append(pickle.loads(blob) if blob else [])
    return runs, bytes_in


def _fire_faults(
    injector: Optional[FaultInjector], phase: str, index: int, attempt: int
) -> Optional[Callable[[], None]]:
    """Fire one task attempt's injected faults (worker-side).

    Crash, hang and transient faults fire right here, at task entry. The
    returned deferred call is the attempt's ``shm`` fault, threaded to
    where a real one would surface: map tasks pass it to
    :func:`_spill_map_output` (the spill write, exercising the
    inline-bytes degrade), reduce tasks to :func:`_fetch_partition_runs`
    (the segment read, failing the attempt like a vanished segment would).
    A task whose runs travel inline touches no segment and is immune.
    """
    if injector is None:
        return None
    injector.fire(phase, index, attempt)
    return lambda: injector.shm_fault(phase, index, attempt)


class ShuffleService:
    """Driver-side bookkeeping for the push-based streaming shuffle.

    Reserves one spill-segment name per map task *attempt* from the run's
    ``spills`` (see :class:`~repro.mapreduce.shm.SpillSet` — driver-chosen,
    attempt-scoped names are what make both post-crash sweeping and
    per-task retries possible: two attempts of one map task never collide
    on a name, and a dead attempt's run is swept via :meth:`sweep_attempt`
    without touching the winner's), records each map task's :class:`_RunCommit` as it
    lands, and tells the scheduler which reduce partitions became ready.
    Partition *p*'s *feeders* are the splits whose declared
    ``partitions`` include *p* (a split declaring ``None`` feeds every
    partition): *p* is ready the moment its last feeder commits, and a
    partition no split feeds is ready at the job's last commit. The
    guard in :meth:`~repro.mapreduce.job.MapReduceJob.partition_pairs`
    makes a run outside a declaration fail its map task, so a reducer
    never starts before a run it needs. Attempts that committed inline are
    struck off ``spills`` as they land, so its release sweeps only names
    an attempt could still have created a segment under. Without
    ``spills`` every run travels inline.
    """

    def __init__(
        self,
        job: MapReduceJob,
        splits: Sequence[InputSplit],
        spills: Optional[shm_mod.SpillSet] = None,
    ) -> None:
        self.num_partitions = job.num_reducers
        num_splits = len(splits)
        self._commits: List[Optional[_RunCommit]] = [None] * num_splits
        self._pending = num_splits
        # Per split the partitions it feeds; per partition its feeders in
        # split-index order, and how many of them have yet to commit.
        self._feeds: List[List[int]] = [[] for _ in range(num_splits)]
        self._feeders: List[List[int]] = [[] for _ in range(self.num_partitions)]
        for split in sorted(splits, key=lambda s: s.index):
            for p in range(self.num_partitions):
                if split.partitions is None or p in split.partitions:
                    self._feeds[split.index].append(p)
                    self._feeders[p].append(split.index)
        self._waiting = [len(f) for f in self._feeders]
        self._spills = spills

    def spill_name(self, split_index: int, attempt: int = 1) -> Optional[str]:
        """The segment name reserved for one map attempt (None → inline)."""
        if self._spills is None:
            return None
        return self._spills.name_for(split_index, attempt)

    def sweep_attempt(self, split_index: int, attempt: int) -> None:
        """Sweep one dead map attempt's spill segment (idempotent).

        Called by the scheduler's ``on_attempt_dead`` hook for failed,
        lost, cancelled and first-commit-losing attempts — always *after*
        the attempt's future settled, so a straggler cannot recreate the
        segment behind the sweep.
        """
        if self._spills is not None:
            self._spills.sweep(split_index, attempt)

    def commit(self, split_index: int, commit: _RunCommit, attempt: int) -> List[int]:
        """Record one map task's runs; return partitions that became ready.

        ``attempt`` is the winning attempt's number. An inline commit says
        that attempt created no segment, so its reserved name is dropped
        here and the release has nothing to sweep for it — a job whose
        every output fits in a page writes no spill at all.

        Map tasks commit all their runs atomically on completion, so a
        partition is ready when its last feeder commits; over the job every
        partition is returned exactly once, in ascending order per call.
        """
        assert self._commits[split_index] is None, "map task committed twice"
        self._commits[split_index] = commit
        if commit.segment is None and self._spills is not None:
            self._spills.forget(split_index, attempt)
        ready: List[int] = []
        for p in self._feeds[split_index]:
            self._waiting[p] -= 1
            if self._waiting[p] == 0:
                ready.append(p)
        self._pending -= 1
        if self._pending == 0:
            ready.extend(p for p, f in enumerate(self._feeders) if not f)
        return sorted(ready)

    def locators(self, partition_index: int) -> List[_RunLocator]:
        """Partition *p*'s run locators: its feeders', in split-index order."""
        out: List[_RunLocator] = []
        for split_index in self._feeders[partition_index]:
            commit = self._commits[split_index]
            assert commit is not None, "partition scheduled before its runs committed"
            out.append(commit.locator(partition_index))
        return out


def _stamp_meta(rec: TaskRecord, meta: TaskMeta) -> TaskRecord:
    """Stamp a task's attempt trail onto its record (driver-side)."""
    if meta.attempts <= 1 and not meta.speculative:
        return rec
    return replace(
        rec,
        attempts=meta.attempts,
        winner=meta.winner,
        speculative=meta.speculative,
    )


# --------------------------------------------------------------------------- #
# the process pool
# --------------------------------------------------------------------------- #


def _serial_fallback(
    job: MapReduceJob,
    splits: Sequence[InputSplit],
    why: str,
    cause: Optional[BaseException] = None,
) -> JobResult:
    """Last resort after retries are exhausted: rerun the whole job serially.

    The run's segments are already swept before this runs — the task
    scheduler drains straggler attempts and :meth:`WorkerPool._run_pool`'s
    ``finally`` releases the run's spill set, job blob included, on the way
    out, so an abandoned parallel attempt leaves nothing in ``/dev/shm``.

    On success, every record of the serial rerun is stamped with
    ``fallback_reason`` so operators can see why the job went serial. If
    the serial rerun *also* fails, the original pool/task error is never
    masked: the raised error names the failing task's phase and index when
    known (:class:`~repro.mapreduce.faults.TaskFailedError`) and chains
    the original failure as ``__cause__``.
    """
    warnings.warn(
        f"WorkerPool falling back to serial execution for job {job.name!r}: {why}",
        RuntimeWarning,
        stacklevel=4,
    )
    try:
        result = SerialExecutor().run(job, splits)
    except Exception as serial_exc:
        detail = (
            f"WorkerPool serial fallback for job {job.name!r} also failed "
            f"({type(serial_exc).__name__}: {serial_exc})"
        )
        if isinstance(cause, TaskFailedError):
            detail += (
                f"; original failure was {cause.phase} task {cause.index} "
                f"after {cause.attempts} attempt(s)"
            )
        elif cause is not None:
            detail += f"; original failure: {type(cause).__name__}: {cause}"
        raise RuntimeError(detail) from (cause if cause is not None else serial_exc)
    result.records = [replace(r, fallback_reason=why) for r in result.records]
    return result


@dataclass(frozen=True)
class _JobRef:
    """Where a pool worker fetches one job's pickle from.

    A blob that fits in one page (:data:`_INLINE_BYTES`) rides inline in
    every task item, as does any blob when the run's segments cannot be
    created. A larger blob travels once per machine through a segment the run's
    :class:`~repro.mapreduce.shm.SpillSet` owns (``inline`` is ``None``;
    workers copy it out on first use). ``key`` identifies the job in the
    per-worker cache so a job's bytes are loaded at most once per worker.
    """

    key: str
    segment: Optional[str]
    size: int
    inline: Optional[bytes]


#: Per-worker-process cache of live jobs, most recently used last. Bounded:
#: a long-lived pool serving many queries must not pin every past job.
_POOL_JOBS: "OrderedDict[str, MapReduceJob]" = OrderedDict()
_POOL_JOB_LIMIT = 8


def _pool_load_job(ref: _JobRef) -> MapReduceJob:
    """Fetch/cache the job for ``ref`` in this worker."""
    job = _POOL_JOBS.get(ref.key)
    if job is not None:
        _POOL_JOBS.move_to_end(ref.key)
        return job
    if ref.inline is not None:
        blob = ref.inline
    else:
        assert ref.segment is not None, "job ref carries neither segment nor bytes"
        blob = shm_mod.read_segment(ref.segment, 0, ref.size)
    job = pickle.loads(blob)
    _POOL_JOBS[ref.key] = job
    while len(_POOL_JOBS) > _POOL_JOB_LIMIT:
        _POOL_JOBS.popitem(last=False)
    return job


def _pool_streaming_map_task(
    item: Tuple[_JobRef, InputSplit, Optional[str], int, Optional[FaultInjector]]
) -> Tuple[TaskRecord, _RunCommit]:
    """Worker entry point: run one map attempt and commit its shuffle runs."""
    ref, split, spill_name, attempt, injector = item
    job = _pool_load_job(ref)
    shm_fault = _fire_faults(injector, "map", split.index, attempt)
    sw = Stopwatch().start()
    pairs = job.run_map_task(split)
    commit = _spill_map_output(job, pairs, spill_name, shm_fault=shm_fault, split=split)
    dur = sw.stop()
    rec = TaskRecord(
        task_id=f"{job.name}/map/{split.index:05d}",
        kind=TaskKind.MAP,
        duration=dur,
        input_records=_payload_records(split.payload),
        output_records=len(pairs),
        executor=WorkerPool.kind,
        shuffle_bytes_out=commit.total_bytes,
    )
    return rec, commit


def _pool_streaming_reduce_task(
    item: Tuple[_JobRef, int, List[_RunLocator], int, Optional[FaultInjector]]
) -> Tuple[List[Any], TaskRecord, int]:
    """Worker entry point: fetch one partition's runs, merge and reduce them."""
    ref, partition_index, locators, attempt, injector = item
    job = _pool_load_job(ref)
    shm_fault = _fire_faults(injector, "reduce", partition_index, attempt)
    sw = Stopwatch().start()
    runs, bytes_in = _fetch_partition_runs(locators, shm_fault=shm_fault)
    groups = job.merge_runs(runs)
    out = job.run_reduce_task(groups)
    dur = sw.stop()
    rec = TaskRecord(
        task_id=f"{job.name}/reduce/{partition_index:05d}",
        kind=TaskKind.REDUCE,
        duration=dur,
        input_records=sum(len(v) for _, v in groups),
        output_records=len(out),
        executor=WorkerPool.kind,
        shuffle_bytes_in=bytes_in,
    )
    return out, rec, len(groups)


def _prewarm_noop() -> None:
    """Worker-side no-op: forces a lazy pool's machinery to start."""
    return None


class WorkerPool:
    """Run map and reduce tasks on a process pool that persists across jobs.

    One ``ProcessPoolExecutor``, started lazily at the first :meth:`run`,
    stays alive across runs, so a many-query workload pays worker startup
    (and per-worker warmup) once, not once per query — exactly the overhead
    the paper's fine-grained work units must amortize. Workers keep their
    module-level caches (attached shared-database views, warmed k-mer
    indexes, cached jobs) warm between jobs. Each job's pickle is loaded
    once per worker; see :class:`_JobRef` for how the blob travels. Task
    dispatch relies only on module-level functions, so it is safe under
    every multiprocessing start method, ``spawn`` included. A one-shot caller uses the pool as a context manager (or
    calls :meth:`shutdown`) so no worker outlives its job; an unclosed
    pool's workers are reclaimed at interpreter exit.

    Results and record order are identical to :class:`SerialExecutor`'s
    for any job; task records are tagged ``executor="processes"``. Jobs
    that cannot be pickled (closures over local state) fall back to a
    serial run with a :class:`RuntimeWarning`, its records tagged
    ``executor="serial"`` — truthfully, since that is what produced the
    measurements. Scheduling is fault tolerant: a broken pool (crashed
    worker) is respawned in place and only the uncommitted tasks
    re-dispatched; whole-job serial fallback happens only once a task
    exhausts its :class:`~repro.mapreduce.faults.RetryPolicy` budget, and
    then the broken pool is discarded so the next :meth:`run` starts
    fresh.

    :meth:`run` may be called from several threads at once (the always-on
    service drives one thread per in-flight query): every job's map and
    reduce attempts are submitted into the *same* ``ProcessPoolExecutor``
    queue, so one query's reduce tasks interleave with the next query's
    map tasks and the pool never drains between queries. Each concurrent
    job keeps its own :class:`~repro.mapreduce.scheduler.TaskScheduler`,
    spill set and result assembly, so outputs stay byte-identical to
    running the jobs one at a time. Cross-job coordination is confined to
    the pool handle itself: creation is locked, a worker crash (which
    breaks the shared pool for *every* job) is respawned exactly once no
    matter how many jobs observe it, and a job that falls back to serial
    only discards the shared pool when the pool is actually broken —
    never out from under a healthy concurrent job.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``. One worker runs every
        job serially in the caller, without starting a pool.
    start_method:
        Optional multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.
    retry:
        The :class:`~repro.mapreduce.faults.RetryPolicy` in force;
        defaults to bounded retries with backoff.
        ``RetryPolicy(max_attempts=1)`` reproduces the pre-fault-tolerance
        behaviour (any failure goes straight to the serial fallback).
    injector:
        Optional :class:`~repro.mapreduce.faults.FaultInjector` threaded
        into every task attempt (tests/benchmarks only).
    """

    kind = "processes"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self.start_method = start_method
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector
        self._pool: Optional[ProcessPoolExecutor] = None
        # Guards the pool handle (create/discard/respawn) across the
        # concurrent run() threads of a multi-query service; never held
        # while waiting on futures or workers.
        self._lock = threading.Lock()
        self._active_runs = 0

    # ------------------------------------------------------------------ #

    @staticmethod
    def _is_broken(pool: Optional[ProcessPoolExecutor]) -> bool:
        """Whether a pool can never run another task (worker crash).

        ``ProcessPoolExecutor`` exposes no public probe; ``_broken`` has
        carried the broken state since 3.7. If the attribute ever
        disappears we assume *broken*, degrading to the old conservative
        always-respawn behaviour rather than ever skipping a needed
        respawn.
        """
        return pool is None or bool(getattr(pool, "_broken", True))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                ctx = multiprocessing.get_context(self.start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=ctx
                )
            return self._pool

    def prewarm(self) -> None:
        """Start every worker process now, not at first submit.

        ``ProcessPoolExecutor`` spawns workers lazily as tasks arrive. Under
        a multi-threaded driver (the service: several queries running
        ``run`` on sibling threads) the first submits therefore fork while
        other threads are mid-flight — and a fork of a multi-threaded
        process can inherit a lock some other thread held at that instant
        (an allocator's, a logging handler's), deadlocking the child before
        it ever picks up a task. Call this from a quiescent moment — before the
        pool is shared across threads — so every worker is born while no
        sibling thread is running. (A post-crash respawn still starts
        workers lazily; that path only follows a worker loss.)

        Best-effort: it leans on ``_spawn_process``/``_processes`` (stable
        since 3.9, same vintage as the ``_broken`` probe above) and simply
        stays lazy if a future CPython moves them. A one-worker pool starts
        nothing: :meth:`run` executes its jobs serially in the caller.
        """
        if self.max_workers == 1:
            return
        pool = self._ensure_pool()
        spawn = getattr(pool, "_spawn_process", None)
        processes = getattr(pool, "_processes", None)
        if spawn is None or processes is None:  # pragma: no cover
            return
        while len(processes) < self.max_workers:
            spawn()
        # The manager thread normally starts at first submit; it is also
        # what delivers exit sentinels to the workers on shutdown. Start
        # it now, or a prewarmed-but-never-used pool would orphan its
        # workers (blocked on the call queue forever) and hang exit.
        start_manager = getattr(pool, "_start_executor_manager_thread", None)
        if start_manager is not None:
            start_manager()
        else:  # pragma: no cover - internals moved: reach it via submit
            pool.submit(_prewarm_noop).result()

    def _open_run(
        self, job_bytes: bytes
    ) -> Tuple[_JobRef, Optional[shm_mod.SpillSet]]:
        """Open the run's segment owner and ship its job blob through it.

        The :class:`~repro.mapreduce.shm.SpillSet` holds the run's anchor
        lock, so its job blob and spills are reaped whatever kills this
        driver. When shared memory fails (``/dev/shm`` missing or
        exhausted: an ``OSError``), the job and the runs ride inline.
        """
        # Content-addressed: re-submitting the same job (a pickled-identical
        # blob) hits the per-worker LRU for the whole pool lifetime — not
        # once per run. A per-instance counter key defeated the cache on
        # every run, and two pools in one process could mint colliding keys
        # for different jobs.
        key = hashlib.sha256(job_bytes).hexdigest()
        spills: Optional[shm_mod.SpillSet] = None
        try:
            spills = shm_mod.SpillSet()
            if len(job_bytes) > _INLINE_BYTES:
                name = spills.publish_job(job_bytes)
                return _JobRef(key, name, len(job_bytes), None), spills
        except OSError as exc:
            warnings.warn(
                f"WorkerPool could not publish job blob via shared "
                f"memory ({exc}); shipping inline per task",
                RuntimeWarning,
                stacklevel=4,
            )
        return _JobRef(key, None, 0, job_bytes), spills

    def run(self, job: MapReduceJob, splits: Sequence[InputSplit]) -> JobResult:
        try:
            job_bytes = pickle.dumps(job)
        except Exception as exc:  # PicklingError/AttributeError/TypeError
            return _serial_fallback(job, splits, f"job is not picklable ({exc})")
        if not splits or self.max_workers == 1:
            # Nothing to parallelize — don't pay pool startup.
            return SerialExecutor().run(job, splits)
        with self._lock:
            self._active_runs += 1
        try:
            return self._run_pool(job, job_bytes, splits)
        except Exception as exc:
            # The scheduler already retried and respawned; reaching here
            # means a task exhausted its budget (or hit an unretryable
            # error). Discard whatever pool is left so the next run starts
            # fresh — unless healthy concurrent jobs are still running on
            # it, in which case only an actually-broken pool is discarded
            # (shutting a live pool down would cancel their queued
            # attempts). Then rerun serially — that either succeeds or
            # raises with this genuine task error chained.
            with self._lock:
                alone = self._active_runs == 1
            self._discard_pool(only_if_broken=not alone)
            return _serial_fallback(
                job, splits,
                f"process pool failed ({type(exc).__name__}: {exc})",
                cause=exc,
            )
        finally:
            with self._lock:
                self._active_runs -= 1

    def _respawn(self) -> None:
        """Replace a broken pool in place (the scheduler's respawn hook).

        A worker crash breaks the shared pool for every concurrent job,
        so every job's scheduler calls here — the broken check makes the
        replacement happen exactly once: whichever scheduler arrives
        first swaps in a fresh pool, the rest see a healthy pool and
        leave it alone (their lost attempts are already queued for retry
        and will resubmit through :meth:`_ensure_pool`).
        """
        self._discard_pool(only_if_broken=True)
        self._ensure_pool()

    def _run_pool(
        self, job: MapReduceJob, job_bytes: bytes, splits: Sequence[InputSplit]
    ) -> JobResult:
        """Run one job's map and reduce attempts under the streaming shuffle.

        One :class:`~repro.mapreduce.scheduler.TaskScheduler` drives both
        phases: map completions are consumed in *completion* order and
        reduce task *p* is added the instant :class:`ShuffleService`
        reports its last feeder committed. Only splits that declare their
        ``partitions`` narrow the feeders: when they do, a reducer whose
        inputs are done runs while other partitions' map tasks are still
        in flight; when every split declares ``None`` (or every partition),
        all reducers become ready together at the last map commit.
        Each map attempt spills under its own attempt-scoped segment name;
        dead attempts (failed, lost with the pool, superseded by a faster
        duplicate) have their spill swept promptly through the scheduler's
        ``on_attempt_dead`` hook, and releasing the run's spill set sweeps
        whatever remains, job blob included — the scheduler drains
        straggler attempts before returning, so the sweep cannot race a
        write. Determinism is unaffected by any
        of this reordering: runs are concatenated in split-index order
        inside each reduce task and results are assembled by partition
        index. Submits go through :meth:`_ensure_pool` so they track
        respawns.
        """
        self._ensure_pool()
        injector = self.injector
        ref, spills = self._open_run(job_bytes)
        service = ShuffleService(job, splits, spills)

        def submit_map(split: InputSplit, attempt: int) -> "Future[Any]":
            name = service.spill_name(split.index, attempt)
            return self._ensure_pool().submit(
                _pool_streaming_map_task, (ref, split, name, attempt, injector)
            )

        def submit_reduce(p: int, attempt: int) -> "Future[Any]":
            return self._ensure_pool().submit(
                _pool_streaming_reduce_task,
                (ref, p, service.locators(p), attempt, injector),
            )

        def attempt_dead(phase: str, index: int, attempt: int) -> None:
            if phase == "map":
                service.sweep_attempt(index, attempt)

        sched = TaskScheduler(
            self.retry, respawn=self._respawn, on_attempt_dead=attempt_dead,
            job_id=job.name,
        )

        def on_map_complete(phase: str, index: int, value: Any) -> None:
            if phase != "map":
                return
            _, commit = value
            winner = sched.meta("map", index).winner
            for p in service.commit(index, commit, winner):
                sched.add("reduce", p, lambda a, p=p: submit_reduce(p, a))

        try:
            for split in splits:
                sched.add("map", split.index, lambda a, s=split: submit_map(s, a))
            sched.run(on_map_complete)

            records: List[TaskRecord] = []
            for split in splits:
                rec, _ = sched.result("map", split.index)
                records.append(_stamp_meta(rec, sched.meta("map", split.index)))
            outputs: List[List[Any]] = []
            shuffle_keys = 0
            for p in range(job.num_reducers):
                out, rec, distinct_keys = sched.result("reduce", p)
                outputs.append(out)
                records.append(_stamp_meta(rec, sched.meta("reduce", p)))
                # Partitions hold disjoint key sets (one partitioner
                # assignment per key), so the per-partition counts sum to
                # the job total.
                shuffle_keys += distinct_keys
            return JobResult(outputs=outputs, records=records, shuffle_keys=shuffle_keys)
        finally:
            if spills is not None:
                spills.release()

    # ------------------------------------------------------------------ #

    def _discard_pool(self, only_if_broken: bool = False) -> None:
        with self._lock:
            pool = self._pool
            if pool is None:
                return
            if only_if_broken and not self._is_broken(pool):
                return
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (idempotent); the next :meth:`run` would rebuild."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    @property
    def started(self) -> bool:
        """Whether a live process pool currently backs this WorkerPool."""
        return self._pool is not None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __del__(self) -> None:
        try:
            self.shutdown(wait=False)
        except Exception:  # orionlint: disable=ORL006
            # Interpreter teardown: modules may already be torn down and
            # there is no caller left to surface anything to.
            pass


# --------------------------------------------------------------------------- #


def resolve_executor(
    spec: Union[str, Executor, None],
    max_workers: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
) -> Executor:
    """Turn an executor spec (name or instance) into an executor.

    ``None`` and ``"serial"`` give a :class:`SerialExecutor` (the default
    everywhere — its measurements feed the cluster simulator);
    ``"processes"`` builds a :class:`WorkerPool` with ``max_workers``
    workers; an object with a ``run`` method (such as the race-detecting
    :class:`repro.analysis.sanitizer.SanitizerExecutor` that ``search
    --sanitize`` builds) passes through unchanged. ``retry`` is the
    fault-tolerance policy and ``injector`` an optional fault plan
    (in-process executors run tasks in the driver, where a failure is
    already surfaced directly, so they ignore both).
    """
    if spec is None or spec == "serial":
        return SerialExecutor()
    if spec == "processes":
        return WorkerPool(max_workers=max_workers, retry=retry, injector=injector)
    if isinstance(spec, str):
        raise ValueError(f"unknown executor {spec!r}; expected one of {EXECUTOR_KINDS}")
    if hasattr(spec, "run"):
        return spec
    raise TypeError(f"executor must be a name or an Executor, got {type(spec).__name__}")
