"""Circuit breaker — graceful degradation for the always-on service.

The classic three-state machine, one breaker per service:

- **closed** — requests flow; consecutive failures are counted and
  ``failure_threshold`` of them in a row trip the breaker open (a success
  resets the count).
- **open** — requests are rejected at admission (:class:`CircuitOpenError`
  in the service) so a failing backend is not hammered; after
  ``reset_timeout`` seconds the breaker moves to half-open.
- **half-open** — up to ``half_open_probes`` requests are let through as
  probes. The first probe success closes the breaker (full recovery); a
  probe failure trips it straight back open and restarts the timeout.

Time is injected (``clock``) so the state machine is deterministic under
test — no wall-clock waits, per the repo-wide ORL009 invariant. All
methods are thread-safe: the service records outcomes from worker threads
while the event loop asks :meth:`allow` at admission.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: The three breaker states, as reported by :attr:`CircuitBreaker.state`.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Thread-safe closed/open/half-open breaker with an injectable clock.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (while closed) that trip the breaker open.
    reset_timeout:
        Seconds the breaker stays open before moving to half-open.
    half_open_probes:
        Concurrent probe requests admitted while half-open.
    clock:
        Monotonic time source; tests pass a fake for deterministic
        transitions.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be positive, got {reset_timeout}")
        if half_open_probes <= 0:
            raise ValueError(
                f"half_open_probes must be positive, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        #: How many times the breaker has tripped open (service stats).
        self.times_opened = 0

    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        """Current state (``closed``/``open``/``half_open``), clock-aware."""
        with self._lock:
            self._tick()
            return self._state

    def allow(self) -> bool:
        """Whether a new request may be admitted right now.

        In half-open state a ``True`` answer *reserves* one of the probe
        slots; the caller must follow up with :meth:`record_success` or
        :meth:`record_failure` to release it.
        """
        with self._lock:
            self._tick()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probes_inflight < self.half_open_probes:
                self._probes_inflight += 1
                return True
            return False

    def record_success(self) -> None:
        """A request against the backend completed successfully."""
        with self._lock:
            self._tick()
            if self._state == HALF_OPEN:
                # First probe success closes the breaker: full recovery.
                self._state = CLOSED
                self._consecutive_failures = 0
                self._probes_inflight = 0
            elif self._state == CLOSED:
                self._consecutive_failures = 0
            # OPEN: a straggler admitted before the trip finished late —
            # recovery is decided by half-open probes, not by stale wins.

    def record_failure(self) -> None:
        """A request against the backend failed."""
        with self._lock:
            self._tick()
            if self._state == HALF_OPEN:
                self._trip()
            elif self._state == CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._trip()
            # OPEN: already rejecting; a stale failure changes nothing.

    # ------------------------------------------------------------------ #

    def _tick(self) -> None:
        """Lazy open → half-open transition (callers hold the lock)."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = HALF_OPEN
            self._probes_inflight = 0

    def _trip(self) -> None:
        """Open the breaker now (callers hold the lock)."""
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probes_inflight = 0
        self.times_opened += 1
