"""Executors: run a MapReduce job and measure per-task durations.

Two executors with identical result semantics (DESIGN.md row 5's
"pluggable executors"):

* :class:`SerialExecutor` — runs every task in this thread. Its per-task
  wall-clock durations are the *measurements* the cluster simulator replays
  onto modelled clusters (DESIGN.md §2: measured work, simulated scheduling).
* :class:`WorkerPool` — a process pool that persists across jobs; map
  tasks run on separate cores, which is the point of the paper's
  fine-grained work units. Only the job's mapper travels: pickled once in
  the driver, it rides in every task message and the worker unpickles it
  per task. A mapper that closes over unpicklable state (a lambda, a local
  closure) falls back to serial execution with a warning; the reducer
  never leaves the driver, so it may be anything.

Both executors end a job the same way, in the driver:
:func:`_shuffle_and_reduce` groups the map outputs by key
(:func:`~repro.mapreduce.job.shuffle`) and calls the reducer once per key
in sorted key order, timing each call as one reduce record. The serial
executor is the oracle everything else is property-tested against; the
pool differs from it only in where the map tasks run. Reduce-side
aggregation is cheap next to the map tasks' BLAST work, and the paper's
reduce tasks are replayed from serial records (DESIGN.md §2), so the pool
does not farm reducers out.

The process pool's map phase is fault tolerant (DESIGN.md §4.6): every
map task runs as a sequence of *attempts* under a
:class:`~repro.mapreduce.faults.RetryPolicy` driven by the
:class:`~repro.mapreduce.scheduler.TaskScheduler`. A failed attempt
(exception, crashed worker, missed deadline) retries that one task with
backoff instead of poisoning the job; a crashed worker breaks the pool,
which is respawned once and only the uncommitted tasks re-dispatched —
committed map outputs, already back in the driver, are kept. The
per-attempt deadline is the one straggler mechanism: a timed-out attempt
keeps running as a zombie and still wins if it commits before its
replacement. All of it is exercised
deterministically by threading a
:class:`~repro.mapreduce.faults.FaultInjector` through the pool. The
whole-job serial fallback remains only as the last resort after a map
task exhausts its attempt budget.

All executors return the same :class:`~repro.mapreduce.types.JobResult` for
the same job and splits, independent of scheduling order: map outputs are
ordered by split index before the shuffle, and reducer outputs by key,
so results are deterministic end to end — tasks are pure
functions of their split, so retried and zombie attempts cannot
change the output either. Every
:class:`~repro.mapreduce.types.TaskRecord` is tagged with the executor kind
that produced it; only serial records are ``simulator_safe``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from typing import Any, List, Optional, Protocol, Sequence, Tuple, Union

from repro.mapreduce.faults import FaultInjector, RetryPolicy, TaskFailedError
from repro.mapreduce.job import Mapper, MapReduceJob, shuffle
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
    mapper: Mapper,
    name: str,
    split: InputSplit,
    executor: str = "serial",
) -> Tuple[List[Tuple[Any, Any]], TaskRecord]:
    sw = Stopwatch().start()
    pairs = list(mapper(split))
    dur = sw.stop()
    rec = TaskRecord(
        task_id=f"{name}/map/{split.index:05d}",
        kind=TaskKind.MAP,
        duration=dur,
        input_records=_payload_records(split.payload),
        output_records=len(pairs),
        executor=executor,
    )
    return pairs, rec


def _measure_reduce(
    job: MapReduceJob,
    index: int,
    key: Any,
    values: List[Any],
    executor: str = "serial",
) -> Tuple[Any, TaskRecord]:
    """Call the reducer on the ``index``-th key in sorted order; time the call."""
    sw = Stopwatch().start()
    out = job.reducer(key, values)
    dur = sw.stop()
    rec = TaskRecord(
        task_id=f"{job.name}/reduce/{index:05d}",
        kind=TaskKind.REDUCE,
        duration=dur,
        input_records=len(values),
        executor=executor,
    )
    return out, rec


def _shuffle_and_reduce(
    job: MapReduceJob,
    map_outputs: Sequence[Sequence[Tuple[Any, Any]]],
    records: List[TaskRecord],
    executor: str,
) -> JobResult:
    """The driver's half of every job: shuffle the map outputs, reduce per key.

    ``map_outputs`` and ``records`` are in split order; one reduce record
    per key is appended in key order, tagged ``executor``. A reducer's
    exception propagates unchanged.
    """
    outputs: List[Tuple[Any, Any]] = []
    for i, (key, values) in enumerate(shuffle(map_outputs)):
        out, rec = _measure_reduce(job, i, key, values, executor=executor)
        outputs.append((key, out))
        records.append(rec)
    return JobResult(outputs=outputs, records=records)


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
            pairs, rec = _measure_map(job.mapper, job.name, split, executor=self.kind)
            map_outputs.append(pairs)
            records.append(rec)
        return _shuffle_and_reduce(job, map_outputs, records, self.kind)


def _stamp_meta(rec: TaskRecord, meta: TaskMeta) -> TaskRecord:
    """Stamp a task's attempt trail onto its record (driver-side)."""
    if meta.attempts <= 1:
        return rec
    return replace(rec, attempts=meta.attempts, winner=meta.winner)


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

    A pool run makes no segment (its job rides in the task messages), so
    an abandoned parallel attempt leaves nothing in ``/dev/shm`` to sweep.

    On success, every record of the serial rerun is stamped with
    ``fallback_reason`` so operators can see why the job went serial. If
    the serial rerun *also* fails, the original pool/task error is never
    masked: the raised error names the failing map task's index when
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
                f"; original failure was map task {cause.index} "
                f"after {cause.attempts} attempt(s)"
            )
        elif cause is not None:
            detail += f"; original failure: {type(cause).__name__}: {cause}"
        raise RuntimeError(detail) from (cause if cause is not None else serial_exc)
    result.records = [replace(r, fallback_reason=why) for r in result.records]
    return result


def _pool_map_task(
    item: Tuple[str, bytes, InputSplit, int, Optional[FaultInjector]]
) -> Tuple[TaskRecord, bytes]:
    """Worker entry point: run one map attempt; return its record and pickled output.

    ``item`` is ``(job name, pickled mapper, split, attempt, injector)``;
    the mapper is unpickled per task. The output pickle's length is the
    record's ``shuffle_bytes_out``: the bytes this task moves to the
    driver's shuffle.
    """
    name, mapper_bytes, split, attempt, injector = item
    mapper = pickle.loads(mapper_bytes)
    if injector is not None:
        injector.fire("map", split.index, attempt)
    pairs, rec = _measure_map(mapper, name, split, executor=WorkerPool.kind)
    blob = pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)
    return replace(rec, shuffle_bytes_out=len(blob)), blob


def _prewarm_noop() -> None:
    """Worker-side no-op: forces a lazy pool's machinery to start."""
    return None


class WorkerPool:
    """Run map tasks on a process pool that persists across jobs.

    One ``ProcessPoolExecutor``, started lazily at the first :meth:`run`,
    stays alive across runs, so a many-query workload pays worker startup
    (and per-worker warmup) once, not once per query — exactly the overhead
    the paper's fine-grained work units must amortize. Workers keep their
    module-level caches (attached shared-database views, warmed k-mer
    indexes) warm between jobs. Only the job's mapper is pickled, once per
    run in the driver, and its bytes ride in every task message; a run
    makes no ``/dev/shm`` segment. A mapper of any size runs, but a large
    one is paid for in every message, so a job keeps its bulk out of the
    mapper (Orion's names its database plane instead of carrying it).
    Task dispatch relies only on
    module-level functions, so it is safe under every multiprocessing start
    method, ``spawn`` included. A one-shot caller uses the pool as a context
    manager (or calls :meth:`shutdown`) so no worker outlives its job; an
    unclosed pool's workers are reclaimed at interpreter exit.

    Only the map phase runs on workers. Each map task returns its output
    pickled with its record, and the driver then shuffles and reduces per
    key exactly as :class:`SerialExecutor` does, so every reducer call runs
    where the serial oracle runs it. Results and record order are identical
    to :class:`SerialExecutor`'s for any job; every record, reduce records
    included, is tagged ``executor="processes"``. A reducer's exception
    propagates from :meth:`run` as it does under :class:`SerialExecutor`:
    it is not retried and leaves the pool running.

    A mapper that cannot be pickled (a closure over local state) makes the
    job fall back to a serial run with a :class:`RuntimeWarning`, its
    records tagged ``executor="serial"`` — truthfully, since that is what
    produced the measurements. Map scheduling is fault tolerant: a broken
    pool (crashed worker) is respawned in place and only the uncommitted map
    tasks re-dispatched; whole-job serial fallback happens only once a map task
    exhausts its :class:`~repro.mapreduce.faults.RetryPolicy` budget, and
    then the broken pool is discarded so the next :meth:`run` starts
    fresh.

    :meth:`run` may be called from several threads at once (the always-on
    service drives one thread per in-flight query): every job's map
    attempts are submitted into the *same* ``ProcessPoolExecutor`` queue,
    so while one query reduces in its driver thread the next query's map
    tasks keep the workers busy. Each concurrent job keeps its own
    :class:`~repro.mapreduce.scheduler.TaskScheduler`, mapper bytes and result
    assembly, so outputs stay byte-identical to running the jobs one at a
    time. Cross-job coordination is confined to the pool handle itself:
    creation is locked, a worker crash (which breaks the shared pool for
    *every* job) is respawned exactly once no matter how many jobs observe
    it, and a job that falls back to serial only discards the shared pool
    when the pool is actually broken — never out from under a healthy
    concurrent job.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``. One worker runs every
        job serially in the caller, without starting a pool.
    start_method:
        Optional multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.
    retry:
        The :class:`~repro.mapreduce.faults.RetryPolicy` in force for map
        tasks; defaults to bounded retries with backoff.
        ``RetryPolicy(max_attempts=1)`` reproduces the pre-fault-tolerance
        behaviour (any failure goes straight to the serial fallback).
    injector:
        Optional :class:`~repro.mapreduce.faults.FaultInjector` threaded
        into every map attempt (tests/benchmarks only).
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

    def run(self, job: MapReduceJob, splits: Sequence[InputSplit]) -> JobResult:
        try:
            job_bytes = pickle.dumps(job.mapper)
        except Exception as exc:  # PicklingError/AttributeError/TypeError
            return _serial_fallback(job, splits, f"mapper is not picklable ({exc})")
        if not splits or self.max_workers == 1:
            # Nothing to parallelize — don't pay pool startup.
            return SerialExecutor().run(job, splits)
        with self._lock:
            self._active_runs += 1
        try:
            map_outputs, records = self._run_maps(job, job_bytes, splits)
        except Exception as exc:
            # The scheduler already retried and respawned; reaching here
            # means a map task exhausted its budget (or hit an unretryable
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
        return _shuffle_and_reduce(job, map_outputs, records, self.kind)

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

    def _run_maps(
        self, job: MapReduceJob, job_bytes: bytes, splits: Sequence[InputSplit]
    ) -> Tuple[List[List[Tuple[Any, Any]]], List[TaskRecord]]:
        """Run one job's map attempts; its map outputs and records in split order.

        A :class:`~repro.mapreduce.scheduler.TaskScheduler` drives the
        attempts, and submits go through :meth:`_ensure_pool` so they
        track respawns. Outputs are ordered by split, not by completion, so
        the driver's shuffle sees what the serial one sees.
        """
        self._ensure_pool()
        injector = self.injector

        def submit_map(split: InputSplit, attempt: int) -> "Future[Any]":
            return self._ensure_pool().submit(
                _pool_map_task, (job.name, job_bytes, split, attempt, injector)
            )

        sched = TaskScheduler(self.retry, respawn=self._respawn, job_id=job.name)
        for split in splits:
            sched.add(split.index, lambda a, s=split: submit_map(s, a))
        sched.run()
        map_outputs: List[List[Tuple[Any, Any]]] = []
        records: List[TaskRecord] = []
        for split in splits:
            rec, blob = sched.result(split.index)
            map_outputs.append(pickle.loads(blob))
            records.append(_stamp_meta(rec, sched.meta(split.index)))
        return map_outputs, records

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
