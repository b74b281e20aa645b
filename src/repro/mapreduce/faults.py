"""Fault-tolerance policy objects and the deterministic fault injector.

The paper's recovery story depends on Hadoop's execution model: work units
are small, so when a task fails or straggles only that one fragment×shard
unit is redone, never the whole query (PAPER.md, design summary). This
module holds the *policy* half of that story for our runtime:

* :class:`RetryPolicy` — how many attempts a task gets, the per-attempt
  deadline, the (injectable, seeded) exponential backoff between attempts,
  and whether Hadoop-style speculative execution is enabled. The scheduler
  (:mod:`repro.mapreduce.scheduler`) never calls ``time.sleep`` directly;
  every wait is derived from :meth:`RetryPolicy.backoff_seconds` so tests
  can shrink backoff to microseconds instead of wall-clock waiting — the
  invariant orionlint rule ORL009 enforces.
* :class:`FaultInjector` — a picklable, deterministic description of
  faults to inject into task attempts, addressable by phase, task index
  and attempt number. Executors thread it to workers so every recovery
  path (crash, hang, transient exception, shm ``OSError``) is exercised on
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
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.util.rng import RngStream

#: Fault kinds the injector understands (see :class:`FaultSpec`).
FAULT_KINDS = ("crash", "hang", "transient", "shm")

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
    """One task exhausted every attempt the :class:`RetryPolicy` allows.

    Carries the task's phase and index — and, when the scheduler was
    tagged with one, the owning job's id — so fallback paths (and
    operators watching a multi-query service, where many jobs share one
    pool) can see exactly which unit of which job poisoned it, and chains
    the last attempt's exception as ``__cause__``.
    """

    def __init__(
        self,
        phase: str,
        index: int,
        attempts: int,
        last_error: str,
        job_id: Optional[str] = None,
    ):
        prefix = f"job {job_id!r}: " if job_id else ""
        super().__init__(
            f"{prefix}{phase} task {index} failed after {attempts} "
            f"attempt(s): {last_error}"
        )
        self.phase = phase
        self.index = index
        self.attempts = attempts
        self.job_id = job_id


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, addressed to (phase, task index, attempt).

    ``index=ANY`` / ``attempt=ANY`` wildcard their dimension, so a single
    spec can poison a whole phase (every attempt of every task) or exactly
    one attempt of one task — the shape the acceptance tests use to prove
    that attempt 2 recovers what attempt 1 lost.

    Kinds
    -----
    ``crash``
        ``os._exit(13)`` in the executing worker — kills the process
        mid-task, breaking the pool (lost in-flight attempts, orphaned
        spill runs).
    ``hang``
        Sleep ``hang_seconds`` before running the task. Against a
        ``task_timeout`` this exercises deadline-triggered retries; against
        speculation it is the straggler a duplicate attempt races.
    ``transient``
        Raise :class:`TransientTaskError` instead of running the task.
    ``shm``
        Fail the task's shared-memory touch point with an ``OSError``: a
        map task's spill write (which degrades to the inline-bytes path) or
        a reduce task's run fetch (which fails the attempt and retries).
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
        if self.phase not in ("map", "reduce"):
            raise ValueError(f"phase must be 'map' or 'reduce', got {self.phase!r}")
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

    Two addressing modes compose:

    * **Explicit specs** — ``specs`` fire whenever their (phase, index,
      attempt) address matches. This is what the fault matrix uses.
    * **Seeded random faults** — with ``rate > 0``, each (phase, index,
      attempt) address draws one uniform variate from a generator seeded
      by ``(seed, phase, index, attempt)`` and injects ``random_kind``
      when the draw falls under ``rate``. Because the draw is keyed by the
      task *address*, not by call order, the same faults fire regardless
      of scheduling interleaving or which worker runs what — reruns are
      exactly reproducible.

    The injector travels to workers inside task items (it is a frozen
    dataclass of primitives), so the same object decides faults on both
    sides of the process boundary.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    rate: float = 0.0
    random_kind: str = "transient"
    random_phase: str = "map"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.random_kind not in FAULT_KINDS:
            raise ValueError(
                f"random_kind must be one of {FAULT_KINDS}, got {self.random_kind!r}"
            )

    # ------------------------------------------------------------------ #

    def fault_for(self, phase: str, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault (if any) addressed to this task attempt."""
        for spec in self.specs:
            if spec.matches(phase, index, attempt):
                return spec
        if self.rate > 0.0 and phase == self.random_phase:
            # Salt-derived stream: deterministic per task address,
            # independent of call order / scheduling interleaving.
            draw = (
                RngStream(self.seed)
                .child(f"{phase}|{index}|{attempt}")
                .generator.random()
            )
            if draw < self.rate:
                return FaultSpec(phase=phase, kind=self.random_kind, index=index,
                                 attempt=attempt)
        return None

    def fire(self, phase: str, index: int, attempt: int) -> None:
        """Execute the task-entry fault for this attempt, if one matches.

        Called worker-side at the top of every guarded task. ``shm`` faults
        do nothing here — they fire at the shared-memory touch point via
        :meth:`shm_fault`.
        """
        spec = self.fault_for(phase, index, attempt)
        if spec is None or spec.kind == "shm":
            return
        if spec.delay > 0.0:
            # Worker-side fault timing, not a retry backoff: the injected
            # delay is itself part of the fault being simulated.
            time.sleep(spec.delay)  # orionlint: disable=ORL009
        if spec.kind == "crash":
            os._exit(13)
        if spec.kind == "hang":
            # The injected straggler: deadline/speculation must beat this.
            time.sleep(spec.hang_seconds)  # orionlint: disable=ORL009
            return
        raise TransientTaskError(
            f"injected transient fault at {phase}/{index} attempt {attempt}"
        )

    def shm_fault(self, phase: str, index: int, attempt: int) -> None:
        """Raise the injected ``OSError`` at a shared-memory touch point."""
        spec = self.fault_for(phase, index, attempt)
        if spec is not None and spec.kind == "shm":
            raise OSError(
                f"injected shm fault at {phase}/{index} attempt {attempt}"
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
            # Fault timing, not a backoff: the delay is part of the fault
            # (e.g. die only after a racing attacher has seen the plane).
            time.sleep(spec.delay)  # orionlint: disable=ORL009
        if spec.kind == "crash":
            os._exit(13)
        return spec


def _default_sleep(seconds: float) -> None:
    """The one blessed blocking sleep behind :attr:`RetryPolicy.sleep`.

    The scheduler folds backoff into future wait timeouts whenever any
    attempt is in flight; only a fully drained pool (every pending retry
    waiting out its backoff) blocks here. Tests inject a no-op or virtual
    clock instead — which is exactly why orionlint ORL009 bans raw
    ``time.sleep`` in runtime paths everywhere but this hook.
    """
    time.sleep(seconds)  # orionlint: disable=ORL009


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task attempt budget, deadlines, backoff and speculation knobs.

    Attributes
    ----------
    max_attempts:
        Total attempts one task may consume, the first included. ``1``
        reproduces the pre-fault-tolerance behaviour: any failure falls
        straight through to the serial-fallback ladder.
    task_timeout:
        Per-attempt deadline in seconds, enforced driver-side via future
        wait timeouts. A timed-out attempt is *retried*, but its future is
        kept as a zombie — if the straggler finishes first it still wins
        (first commit wins), its duplicate is discarded.
    backoff_base / backoff_multiplier / backoff_jitter / seed:
        Exponential backoff between attempts of one task:
        ``base * multiplier**(attempt-1)``, plus-or-minus a jitter
        fraction drawn deterministically from ``(seed, token, attempt)``.
        The scheduler turns these into wait deadlines — no wall-clock
        sleeps — so tests set ``backoff_base`` to microseconds and never
        wait (orionlint ORL009's invariant).
    speculative:
        Enable Hadoop-style speculative execution: once
        ``speculative_fraction`` of a phase's tasks have committed, the
        slowest outstanding task (running longer than
        ``speculative_multiplier`` × the mean committed duration) gets a
        duplicate attempt. First commit wins; the loser is cancelled and
        its spill swept. Safe because tasks are pure — output is
        byte-identical to serial regardless of which attempt wins.
    zombie_grace:
        Seconds to wait, after the job resolves, for straggler attempts
        (timed-out zombies, speculation losers) to land so their spill
        segments can be swept before the job's spill set is released.
    sleep:
        Injectable blocking-sleep hook. The scheduler blocks through this
        only when no attempt is in flight and every pending retry is
        waiting out its backoff; tests inject a no-op so nothing ever
        wall-clock waits (orionlint ORL009's invariant: raw ``time.sleep``
        is banned from runtime paths — waits go through this hook).
    """

    max_attempts: int = 3
    task_timeout: Optional[float] = None
    backoff_base: float = 0.02
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.25
    seed: int = 0
    speculative: bool = False
    speculative_fraction: float = 0.75
    speculative_multiplier: float = 2.0
    zombie_grace: float = 30.0
    sleep: Callable[[float], None] = field(default=_default_sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.backoff_base < 0 or self.backoff_multiplier < 1.0:
            raise ValueError("backoff_base must be >= 0 and multiplier >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}")
        if not 0.0 < self.speculative_fraction <= 1.0:
            raise ValueError(
                f"speculative_fraction must be in (0, 1], got {self.speculative_fraction}"
            )

    def backoff_seconds(self, attempt: int, token: str = "") -> float:
        """Deterministic jittered backoff before attempt ``attempt`` (>= 2).

        ``token`` keys the jitter (the scheduler passes ``phase/index``),
        so two tasks retrying at once do not thunder in lockstep, yet every
        rerun of the same job waits exactly the same amounts.
        """
        if attempt <= 1:
            return 0.0
        base = self.backoff_base * self.backoff_multiplier ** (attempt - 2)
        if self.backoff_jitter == 0.0:
            return base
        spread = (
            RngStream(self.seed)
            .child(f"{token}|{attempt}")
            .generator.uniform(-self.backoff_jitter, self.backoff_jitter)
        )
        return base * (1.0 + spread)
