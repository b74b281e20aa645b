"""repro.service — the always-on Orion serving layer.

An asyncio front-end (:class:`OrionService`) that accepts queries
concurrently, interleaves every in-flight query's (fragment × shard) map
tasks on the one persistent worker pool (cross-query batching; the pool
never drains between queries), and degrades gracefully under overload via
a bounded admission queue and a circuit breaker. See
DESIGN.md §4.7 and the ``serve`` CLI subcommand.
"""

from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.errors import (
    CircuitOpenError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from repro.service.service import (
    LatencyHistogram,
    OrionService,
    ServiceConfig,
    ServiceStats,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "CircuitOpenError",
    "LatencyHistogram",
    "OrionService",
    "QueueFullError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
]
