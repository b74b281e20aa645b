"""Timing shims recorded from outside the program, and what is derived from them.

The benchmark rebinds public names the program imports (module functions,
class attributes) to shims that record ``(name, start, end)`` in memory.
Parents, query ids and self times are worked out afterwards from interval
nesting, which is exact for the single-threaded serial pass; nothing is
written until the run ends. Shims are removed before any gated timing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float]
#: ``observe(args, result, start, end)`` — called after the span closed.
Observer = Callable[[tuple, Any, float, float], None]


class Tracer:
    """In-memory span store plus the shim factory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def wrap(
        self, name: str, fn: Callable[..., Any], observe: Optional[Observer] = None
    ) -> Callable[..., Any]:
        """A shim around ``fn`` recording one span per call."""
        append = self.spans.append
        clock = time.perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                append((name, start, end))
            if observe is not None:
                observe(args, result, start, end)
            return result

        return shim

    @contextmanager
    def patched(
        self,
        bindings: Sequence[Tuple[object, str, str, Optional[Observer]]],
    ) -> Iterator[None]:
        """Rebind ``owner.attr`` to a shim named ``span`` for the block.

        ``owner`` is a module or a class. The raw ``__dict__`` entry is saved
        and restored, so classmethods keep their descriptor.
        """
        saved = []
        try:
            for owner, attr, span, observe in bindings:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    shim: Any = classmethod(self.wrap(span, raw.__func__, observe))
                else:
                    shim = self.wrap(span, raw, observe)
                setattr(owner, attr, shim)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def nest(spans: Sequence[Span]) -> List[Tuple[Span, int, float]]:
    """``(span, parent_index, self_seconds)`` in start order; parent -1 = root.

    A span's self time is its duration minus the part its direct children
    cover. Valid for spans recorded on one thread (they nest or are disjoint).
    """
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    parents: List[int] = []
    self_s = [s[2] - s[1] for s in ordered]
    stack: List[int] = []
    for i, (_, start, end) in enumerate(ordered):
        while stack and ordered[stack[-1]][2] <= start:
            stack.pop()
        parent = stack[-1] if stack else -1
        parents.append(parent)
        if parent >= 0:
            self_s[parent] -= end - start
        stack.append(i)
    return [(ordered[i], parents[i], self_s[i]) for i in range(len(ordered))]


def fold(spans: Sequence[Span], name: str) -> List[Span]:
    """Drop every span nested inside a span called ``name``, making it a leaf."""
    nested = nest(spans)
    hidden: List[bool] = []
    for _, parent, _ in nested:
        hidden.append(
            parent >= 0 and (hidden[parent] or nested[parent][0][0] == name)
        )
    return [span for (span, _, _), gone in zip(nested, hidden) if not gone]


def totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end), _, self_s in nest(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return out


def write_chrome_trace(
    path: Path,
    lanes: Dict[str, Sequence[Span]],
    run_span: str,
    query_ids: Dict[str, Sequence[str]],
) -> None:
    """Flush every lane as Chrome trace-event JSON (one ``tid`` per lane).

    Each event carries ``parent`` (index within its lane) and ``query_id``,
    inherited from the enclosing ``run_span`` whose ids are ``query_ids``
    in call order.
    """
    events: List[dict] = []
    origin = min((s[1] for spans in lanes.values() for s in spans), default=0.0)
    for tid, (lane, spans) in enumerate(lanes.items()):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": lane}}
        )
        ids = iter(query_ids.get(lane, ()))
        query_of: List[Optional[str]] = []
        for (name, start, end), parent, _ in nest(spans):
            if name == run_span:
                query = next(ids, None)
            else:
                query = query_of[parent] if parent >= 0 else None
            query_of.append(query)
            events.append(
                {
                    "name": name, "ph": "X", "pid": 1, "tid": tid,
                    "ts": round((start - origin) * 1e6, 1),
                    "dur": round((end - start) * 1e6, 1),
                    "args": {"parent": parent, "query_id": query},
                }
            )
    path.write_text(json.dumps({"traceEvents": events}, separators=(",", ":")))
