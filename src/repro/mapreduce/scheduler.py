"""Fault-tolerant task scheduling: the attempt-based task lifecycle.

The paper's recovery claim — fine granularity makes re-execution *cheap* —
only holds if a failed or straggling task is redone alone. This module is
the driver-side machinery that makes that true for the worker pool's map
tasks: each task runs as a sequence of *attempts*, and one attempt failing
(exception, worker crash, missed deadline) triggers a bounded, backed-off
retry of that one task while every committed result is kept.

Task lifecycle (the §4.6 state machine)::

    PENDING --launch--> RUNNING --success--> COMMITTED
       ^                  |  |
       |   retry/backoff  |  +--deadline--> RUNNING (zombie) + retry
       +------failure-----+                       |
       |                                          +--late success--> wins
       +---pool broken (attempt lost)             |    iff still uncommitted
                                                  +--loses--> ignored
    attempts exhausted --> FAILED (TaskFailedError -> serial-fallback ladder)

Three recovery mechanisms share the one event loop:

* **Retries** — a failed attempt consumes one unit of the
  :class:`~repro.mapreduce.faults.RetryPolicy` budget and requeues the
  task after a deterministic exponential backoff. Backoff is expressed as
  *wait deadlines*, not sleeps: while anything is in flight the loop waits
  on futures with a timeout, so a retrying task never blocks the others.
* **Pool respawn** — a crashed worker breaks the whole
  ``ProcessPoolExecutor`` (every in-flight and queued future raises
  ``BrokenProcessPool``). The scheduler counts each lost attempt against
  its task, asks the executor to respawn the pool once, and re-dispatches
  only the tasks that never committed; committed results, already back
  in the driver, are kept.
* **Deadlines** — the one straggler mechanism: an attempt older than the
  policy's ``task_timeout`` becomes a *zombie* and its replacement is
  queued. The zombie's future stays watched, because a straggler that
  finishes before its replacement still wins (first commit wins; the
  loser is cancelled if still queued, or ignored when it lands). Safe
  because tasks are pure functions of their split, so the job's output is
  byte-identical regardless of which attempt wins. Each timeout spends
  budget, so an attempt that hangs every time ends in
  :class:`~repro.mapreduce.faults.TaskFailedError`, never in a hang.

An attempt's age counts from its submit, so the deadline includes the time
it queued behind other tasks. Once every task has committed the loop
returns; a zombie still running leaves nothing behind but its worker's
time, because attempts return their output instead of writing it anywhere.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.mapreduce.faults import RetryPolicy, TaskFailedError

try:  # BrokenProcessPool subclasses this; thread pools raise BrokenThreadPool
    from concurrent.futures import BrokenExecutor
except ImportError:  # pragma: no cover - very old pythons
    BrokenExecutor = RuntimeError  # type: ignore[assignment,misc]

@dataclass
class TaskMeta:
    """Attempt bookkeeping for one task, stamped onto its TaskRecord."""

    attempts: int = 0
    winner: int = 0


@dataclass
class _Attempt:
    number: int
    started: float
    timed_out: bool = False


@dataclass
class _TaskState:
    index: int
    submit: Callable[[int], "Future[Any]"]
    attempts_launched: int = 0
    resolved: bool = False
    value: Any = None
    winner: int = 0
    retry_queued: bool = False
    last_error: Optional[BaseException] = None
    running: Dict["Future[Any]", _Attempt] = field(default_factory=dict)

    def has_live_attempt(self) -> bool:
        return any(not a.timed_out for a in self.running.values())


class TaskScheduler:
    """Run map tasks as bounded retried attempts over a (respawnable) pool.

    A task is keyed by its split index.

    Parameters
    ----------
    policy:
        The :class:`~repro.mapreduce.faults.RetryPolicy` in force.
    respawn:
        Called (at most once per pool break) to discard the broken pool
        and build a fresh one; subsequent ``submit`` closures must target
        the new pool. ``None`` means the substrate cannot respawn (a pool
        break then fails every lost attempt and likely exhausts budgets).
    clock:
        Injectable monotonic clock (tests drive deadlines without waiting).
    job_id:
        Optional owning-job tag. Several schedulers may drive jobs over
        *one* shared worker pool concurrently (the always-on service path:
        each query's job gets its own scheduler, their task attempts
        interleave in the pool's queue); the tag is stamped onto every
        :class:`~repro.mapreduce.faults.TaskFailedError` this scheduler
        raises so failures stay attributable per job. Commits need no tag
        to route: each future is owned by exactly one scheduler, so
        results come back to the job that submitted them by construction.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        respawn: Optional[Callable[[], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        job_id: Optional[str] = None,
    ) -> None:
        self.policy = policy
        self.job_id = job_id
        self._respawn = respawn
        self._clock = clock
        self._tasks: Dict[int, _TaskState] = {}
        self._futures: Dict["Future[Any]", int] = {}
        self._retry_heap: List[Tuple[float, int, int]] = []
        self._retry_seq = 0
        self._unresolved = 0
        self._needs_respawn = False

    # ------------------------------------------------------------------ #
    # task registration / results
    # ------------------------------------------------------------------ #

    def add(self, index: int, submit: Callable[[int], "Future[Any]"]) -> None:
        """Register map task ``index`` and launch its first attempt immediately.

        ``submit(attempt)`` must dispatch attempt number ``attempt`` of the
        task to the *current* pool and return its future.
        """
        if index in self._tasks:
            raise ValueError(f"map task {index} already scheduled")
        state = _TaskState(index=index, submit=submit)
        self._tasks[index] = state
        self._unresolved += 1
        self._launch(state)

    def result(self, index: int) -> Any:
        """The committed value of one task (after :meth:`run` returns)."""
        state = self._tasks[index]
        assert state.resolved, f"map task {index} never resolved"
        return state.value

    def meta(self, index: int) -> TaskMeta:
        """Attempt bookkeeping for one task, for TaskRecord stamping."""
        state = self._tasks[index]
        return TaskMeta(attempts=state.attempts_launched, winner=state.winner)

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def run(self) -> None:
        """Drive every registered task to COMMITTED (or raise).

        Raises :class:`~repro.mapreduce.faults.TaskFailedError` when any
        task exhausts its attempt budget.
        """
        while self._unresolved:
            if self._needs_respawn:
                self._needs_respawn = False
                if self._respawn is not None:
                    self._respawn()
            now = self._clock()
            self._launch_due_retries(now)
            if not self._futures:
                delay = self._next_retry_delay(now)
                if delay is None:
                    # No futures, no queued retries, tasks unresolved:
                    # every budget is spent.
                    self._raise_exhausted()
                self.policy.sleep(delay)
                continue
            done, _ = wait(
                list(self._futures),
                timeout=self._wait_timeout(now),
                return_when=FIRST_COMPLETED,
            )
            for fut in done:
                self._handle_settled(fut)
            self._check_deadlines(self._clock())

    # ------------------------------------------------------------------ #
    # launches
    # ------------------------------------------------------------------ #

    def _launch(self, state: _TaskState) -> None:
        attempt = state.attempts_launched + 1
        try:
            fut = state.submit(attempt)
        except BrokenExecutor:
            # The pool died between completions; respawn once and resubmit.
            if self._respawn is None:
                raise
            self._respawn()
            self._needs_respawn = False
            fut = state.submit(attempt)
        state.attempts_launched = attempt
        state.running[fut] = _Attempt(number=attempt, started=self._clock())
        self._futures[fut] = state.index

    def _queue_retry(self, state: _TaskState, now: float) -> None:
        """Requeue after backoff, or raise when the budget is spent."""
        if state.retry_queued or state.resolved:
            return
        if state.attempts_launched >= self.policy.max_attempts:
            if state.has_live_attempt():
                return  # a live attempt may still commit; don't give up yet
            raise TaskFailedError(
                state.index,
                state.attempts_launched,
                repr(state.last_error),
                job_id=self.job_id,
            ) from state.last_error
        due = now + self.policy.backoff_seconds(state.attempts_launched + 1)
        state.retry_queued = True
        self._retry_seq += 1
        heapq.heappush(self._retry_heap, (due, self._retry_seq, state.index))

    def _launch_due_retries(self, now: float) -> None:
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, index = heapq.heappop(self._retry_heap)
            state = self._tasks[index]
            state.retry_queued = False
            if not state.resolved:
                self._launch(state)

    def _next_retry_delay(self, now: float) -> Optional[float]:
        if not self._retry_heap:
            return None
        return max(0.0, self._retry_heap[0][0] - now)

    def _raise_exhausted(self) -> None:
        for state in self._tasks.values():
            if not state.resolved:
                raise TaskFailedError(
                    state.index,
                    state.attempts_launched,
                    repr(state.last_error),
                    job_id=self.job_id,
                ) from state.last_error
        raise AssertionError("unresolved count drifted")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # completions
    # ------------------------------------------------------------------ #

    def _handle_settled(self, fut: "Future[Any]") -> None:
        state = self._tasks[self._futures.pop(fut)]
        attempt = state.running.pop(fut)
        try:
            value = fut.result(timeout=0)
        except CancelledError:
            # Cancelled replacements of a resolved task are expected; a
            # cancelled attempt of an *unresolved* task (a concurrent
            # job's respawn swept the shared pool's queue) must requeue,
            # or the task would sit attempt-less until misreported as
            # budget-exhausted.
            if not state.resolved:
                if state.last_error is None:
                    state.last_error = CancelledError(
                        f"map task {state.index} attempt "
                        f"{attempt.number} was cancelled before running"
                    )
                self._queue_retry(state, self._clock())
            return
        except BrokenExecutor as exc:
            # The attempt was lost with the pool, not failed by the task;
            # it still consumed budget (it may be the one that crashed).
            state.last_error = exc
            self._needs_respawn = True
            self._queue_retry(state, self._clock())
            return
        except Exception as exc:
            state.last_error = exc
            self._queue_retry(state, self._clock())
            return
        if state.resolved:
            return  # first commit won already; this straggler's output is unused
        state.resolved = True
        state.value = value
        state.winner = attempt.number
        self._unresolved -= 1
        # Cancel replacements still queued; running ones become watched losers.
        for other in list(state.running):
            other.cancel()

    # ------------------------------------------------------------------ #
    # deadlines
    # ------------------------------------------------------------------ #

    def _check_deadlines(self, now: float) -> None:
        timeout = self.policy.task_timeout
        if timeout is None:
            return
        for state in self._tasks.values():
            if state.resolved:
                continue
            for attempt in state.running.values():
                if attempt.timed_out or now - attempt.started <= timeout:
                    continue
                # Zombie: keep watching (a late finish can still win) but
                # consume budget and queue the replacement now.
                attempt.timed_out = True
                state.last_error = TimeoutError(
                    f"map task {state.index} attempt {attempt.number} "
                    f"exceeded task_timeout={timeout}s"
                )
                self._queue_retry(state, now)

    # ------------------------------------------------------------------ #
    # wait timing
    # ------------------------------------------------------------------ #

    def _wait_timeout(self, now: float) -> Optional[float]:
        """How long the loop may block on futures before housekeeping."""
        candidates: List[float] = []
        delay = self._next_retry_delay(now)
        if delay is not None:
            candidates.append(delay)
        if self.policy.task_timeout is not None:
            for state in self._tasks.values():
                for attempt in state.running.values():
                    if not attempt.timed_out:
                        remaining = self.policy.task_timeout - (now - attempt.started)
                        candidates.append(max(0.0, remaining))
        if not candidates:
            return None
        return max(min(candidates), 0.001)
