"""Typed errors for the always-on Orion service.

Overload is signalled, never silently absorbed: a full admission queue and
an open circuit breaker each reject with their own exception type so a
client (or the CLI) can tell "back off and retry" (:class:`QueueFullError`,
:class:`CircuitOpenError`) apart from "the service is gone"
(:class:`ServiceClosedError`). All of them derive from
:class:`ServiceError` for callers that only care about shed-vs-served.
"""

from __future__ import annotations


class ServiceError(RuntimeError):
    """Base class for service-level failures (admission, overload, state)."""


class ServiceClosedError(ServiceError):
    """The service is draining or closed and admits no new queries."""


class QueueFullError(ServiceError):
    """The bounded admission queue is full — load was shed at the door.

    Raised *before* the query is enqueued: rejected work was never admitted,
    so nothing already accepted is lost and the event loop never blocks on a
    full queue.
    """

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"admission queue full ({queue_depth} queued); retry later or "
            f"raise --queue-depth"
        )
        self.queue_depth = queue_depth


class CircuitOpenError(ServiceError):
    """The service's circuit breaker is open — the backend is suspect.

    Raised at admission while the breaker holds requests off a failing
    search; the breaker moves to half-open after its reset timeout and
    recovery is probed automatically.
    """

    def __init__(self) -> None:
        super().__init__(
            "circuit breaker open; backend is failing, probes resume after "
            "the reset timeout"
        )
