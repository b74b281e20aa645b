"""Fault-tolerance policy objects and the deterministic fault injector.

The paper's recovery story depends on Hadoop's execution model: work units
are small, so when a task fails or straggles only that one fragment×shard
unit is redone, never the whole query (PAPER.md, design summary). This
module holds the *policy* half of that story for our runtime:

* :class:`RetryPolicy` — how many attempts a task gets and the
  per-attempt deadline (the one straggler mechanism). A failed attempt's
  replacement is submitted at once: every attempt waits in one FIFO pool
  queue, which is the only wait, as in Hadoop, where a failed attempt goes
  back to the queue for the next free slot.
* :class:`FaultInjector` — a picklable, deterministic description of
  faults to inject into task attempts, addressable by phase, task index
  and attempt number. The worker pool threads it to its map tasks so
  every recovery path (crash, hang, transient exception) is exercised on
  purpose by the fault-matrix tests, not by ad-hoc ``os._exit`` mappers.
* The exception vocabulary: :class:`TransientTaskError` (what injected
  transient faults raise) and :class:`TaskFailedError` (what the scheduler
  raises when one task exhausts its attempts — it names the task so the
  serial-fallback ladder can report *which* unit poisoned the job).

Everything here is plain data: no futures, no pools, no shared memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: Fault kinds the injector understands (see :class:`FaultSpec`).
FAULT_KINDS = ("crash", "hang", "transient")

#: Fault kinds valid for the ``plane`` pseudo-phase: lifecycle faults the
#: plane registry consults at its attach/create/publish points.
PLANE_FAULT_KINDS = ("crash", "corrupt-segment")

#: Lifecycle points the plane registry fires (see FaultSpec ``point``).
PLANE_FAULT_POINTS = ("attach", "create", "publish")

#: Matches any task index / attempt number in a :class:`FaultSpec`.
ANY = -1


class TransientTaskError(RuntimeError):
    """A task failure that is expected to succeed on retry.

    Raised by injected ``transient`` faults; real workloads would map
    momentary resource errors (a full pipe, a racing attach) onto it.
    """


class TaskFailedError(RuntimeError):
    """One map task exhausted every attempt the :class:`RetryPolicy` allows.

    Carries the task's index — and, when the scheduler was
    tagged with one, the owning job's id — so fallback paths (and
    operators watching a multi-query service, where many jobs share one
    pool) can see exactly which unit of which job poisoned it, and chains
    the last attempt's exception as ``__cause__``.
    """

    def __init__(
        self,
        index: int,
        attempts: int,
        last_error: str,
        job_id: Optional[str] = None,
    ):
        prefix = f"job {job_id!r}: " if job_id else ""
        super().__init__(
            f"{prefix}map task {index} failed after {attempts} "
            f"attempt(s): {last_error}"
        )
        self.index = index
        self.attempts = attempts
        self.job_id = job_id


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, addressed to (phase, task index, attempt).

    Task faults address ``phase="map"``: the worker pool runs only map
    tasks, and reducers run in the driver as they do serially.
    ``index=ANY`` / ``attempt=ANY`` wildcard their dimension, so a single
    spec can poison a whole phase (every attempt of every task) or exactly
    one attempt of one task — the shape the acceptance tests use to prove
    that attempt 2 recovers what attempt 1 lost.

    Kinds
    -----
    ``crash``
        ``os._exit(13)`` in the executing worker — kills the process
        mid-task, breaking the pool (lost in-flight attempts).
    ``hang``
        Sleep ``hang_seconds`` before running the task: the straggler a
        ``task_timeout`` deadline must beat. Against a deadline this
        exercises deadline-triggered retries; on every attempt it spends
        the budget and ends in the serial-fallback ladder.
    ``transient``
        Raise :class:`TransientTaskError` instead of running the task.
    ``delay``
        Seconds to wait before firing (all kinds). Lets a crash be timed
        past the commit of its wave-mates so exactly one task is in flight
        when the pool breaks.

    Plane lifecycle faults
    ----------------------
    ``phase="plane"`` addresses the plane registry rather than a task:
    ``point`` selects one of its lifecycle points (``attach``, ``create``,
    ``publish``; ``None`` wildcards), and ``kind`` must be one of
    :data:`PLANE_FAULT_KINDS` — ``crash`` (``os._exit(13)`` at the point,
    simulating a SIGKILLed holder; at ``publish`` the data segments exist
    but the registry does not, the nastiest orphan shape) or
    ``corrupt-segment`` (scribble a data segment head just before
    verification, which must then raise ``PlaneCorruptError``).
    ``index``/``attempt`` are ignored for plane faults.
    """

    phase: str
    kind: str
    index: int = ANY
    attempt: int = ANY
    delay: float = 0.0
    hang_seconds: float = 30.0
    point: Optional[str] = None

    def __post_init__(self) -> None:
        if self.phase == "plane":
            if self.kind not in PLANE_FAULT_KINDS:
                raise ValueError(
                    f"plane fault kind must be one of {PLANE_FAULT_KINDS}, "
                    f"got {self.kind!r}"
                )
            if self.point is not None and self.point not in PLANE_FAULT_POINTS:
                raise ValueError(
                    f"plane fault point must be one of {PLANE_FAULT_POINTS} "
                    f"or None, got {self.point!r}"
                )
            return
        if self.point is not None:
            raise ValueError("point is only valid for phase='plane' faults")
        if self.phase != "map":
            raise ValueError(f"phase must be 'map' or 'plane', got {self.phase!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")

    def matches(self, phase: str, index: int, attempt: int) -> bool:
        return (
            self.phase == phase
            and self.index in (ANY, index)
            and self.attempt in (ANY, attempt)
        )


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic, picklable fault plan threaded through the executors.

    ``specs`` fire whenever their (phase, index, attempt) address matches
    — keyed by the task *address*, not by call order, so the same faults
    fire regardless of scheduling interleaving or which worker runs what.

    The injector travels to workers inside task items (it is a frozen
    dataclass of primitives), so the same object decides faults on both
    sides of the process boundary.
    """

    specs: Tuple[FaultSpec, ...] = ()

    # ------------------------------------------------------------------ #

    def fault_for(self, phase: str, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault (if any) addressed to this task attempt."""
        for spec in self.specs:
            if spec.matches(phase, index, attempt):
                return spec
        return None

    def fire(self, phase: str, index: int, attempt: int) -> None:
        """Execute the task-entry fault for this attempt, if one matches.

        Called worker-side at the top of every map attempt. A ``crash``
        never returns, a ``transient`` raises, and a ``hang`` returns after
        ``hang_seconds`` — by then a ``task_timeout`` deadline has queued
        the attempt's replacement, and the late output races it (first
        commit wins).
        """
        spec = self.fault_for(phase, index, attempt)
        if spec is None:
            return
        if spec.delay > 0.0:
            # Worker-side fault timing, not a retry wait: the injected
            # delay is itself part of the fault being simulated.
            time.sleep(spec.delay)  # orionlint: disable=ORL009
        if spec.kind == "crash":
            os._exit(13)
        if spec.kind == "hang":
            # The injected straggler: the deadline must beat this.
            time.sleep(spec.hang_seconds)  # orionlint: disable=ORL009
            return
        raise TransientTaskError(
            f"injected transient fault at {phase}/{index} attempt {attempt}"
        )

    # -- plane lifecycle faults ---------------------------------------- #

    def plane_fault(self, point: str) -> Optional[FaultSpec]:
        """The plane fault (if any) addressed to this lifecycle point."""
        for spec in self.specs:
            if spec.phase == "plane" and spec.point in (None, point):
                return spec
        return None

    def fire_plane(self, point: str) -> Optional[FaultSpec]:
        """Execute the plane fault for ``point``; returns the spec fired.

        Called by :class:`repro.mapreduce.shm.PlaneRegistry` at its
        lifecycle points. ``crash`` kills the process here; ``corrupt-segment``
        is enacted registry-side (the scribble needs the registry's own
        segment handles), so the spec is returned for it.
        """
        spec = self.plane_fault(point)
        if spec is None:
            return None
        if spec.delay > 0.0:
            # Fault timing, not a retry wait: the delay is part of the fault
            # (e.g. die only after a racing attacher has seen the plane).
            time.sleep(spec.delay)  # orionlint: disable=ORL009
        if spec.kind == "crash":
            os._exit(13)
        return spec


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task attempt budget and per-attempt deadline.

    Attributes
    ----------
    max_attempts:
        Total attempts one task may consume, the first included. ``1``
        reproduces the pre-fault-tolerance behaviour: any failure falls
        straight through to the serial-fallback ladder.
    task_timeout:
        Per-attempt deadline in seconds, enforced driver-side via future
        wait timeouts; the one straggler mechanism. A timed-out attempt is
        *retried*, but its future is kept as a zombie — if the straggler
        finishes first it still wins (first commit wins), its replacement
        is discarded. An attempt's age counts from its *submit*, so the
        deadline includes the time it waits in the pool's queue behind the
        job's other tasks (and, under the service, behind other queries'
        tasks): size it above a whole job's wall, not one task's.

    A failed, lost or timed-out attempt's replacement is submitted at
    once, with no backoff between attempts.
    """

    max_attempts: int = 3
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
