"""ORL009 — retries must be bounded and runtime paths must not sleep.

The fault-tolerance layer (:mod:`repro.mapreduce.scheduler`) makes two
promises that are easy to erode one convenience edit at a time:

* Every retry consumes a bounded attempt budget
  (:class:`~repro.mapreduce.faults.RetryPolicy.max_attempts`) — an
  unbounded ``while True: try/except`` retry loop turns a persistent
  failure into a hang, which is strictly worse than the serial fallback it
  replaced.
* No runtime path blocks in a raw ``time.sleep`` — the scheduler's only
  waits are on futures, bounded by the per-attempt deadlines, and a retry
  is submitted at once to the pool's queue. A bare ``time.sleep`` in a
  retry path stalls every other in-flight attempt's handling, silently
  re-introduces real minutes into the test suite and cannot be faulted
  deterministically.

This rule flags both shapes. Deliberate sleeps (the injector's own fault
delays) carry a justifying ``# orionlint: disable=ORL009``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.analysis.engine import FileContext, Rule
from repro.analysis.findings import Severity


def _is_infinite_while(node: ast.While) -> bool:
    """``while True:`` / ``while 1:`` — a loop only its body can exit."""
    test = node.test
    return isinstance(test, ast.Constant) and bool(test.value)


def _walk_no_defs(stmts: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function defs."""
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """Whether a handler neither re-raises nor escapes the retry loop.

    A ``raise`` bounds the retry (the idiom re-raises once attempts run
    out); a ``break`` exits the loop on failure instead of retrying.
    Either one makes the loop's failure path finite, so only handlers with
    neither are swallow-and-retry shapes.
    """
    for node in _walk_no_defs(handler.body):
        if isinstance(node, (ast.Raise, ast.Break)):
            return False
    return True


class RetryBackoffRule(Rule):
    """ORL009: unbounded retry loops and raw ``time.sleep`` waits.

    Flags (a) ``while True`` loops containing a ``try`` whose handler
    swallows the exception without ``raise`` or ``break`` — a retry loop
    with no attempt bound — and (b) any call of ``time.sleep`` (either
    spelling: ``time.sleep(...)``, or ``sleep(...)`` after ``from time
    import sleep``). Bounded retries belong to
    ``RetryPolicy``/``TaskScheduler``, whose only waits are on futures
    under the per-attempt deadline.
    """

    rule_id = "ORL009"
    title = "unbounded retry loop or raw time.sleep wait"
    severity = Severity.ERROR
    invariant = (
        "retries consume a bounded RetryPolicy attempt budget and runtime "
        "paths wait only on futures, never in a raw sleep, so a persistent "
        "failure cannot hang a job and tests never wall-clock wait"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        sleep_is_time_sleep = self._imports_sleep_from_time(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.While) and self._is_unbounded_retry(node):
                yield (
                    node.lineno,
                    node.col_offset,
                    "retry loop without an attempt bound: the except "
                    "swallows and retries forever; bound it (RetryPolicy."
                    "max_attempts) or re-raise once attempts run out",
                )
            if isinstance(node, ast.Call) and self._is_time_sleep(
                node, sleep_is_time_sleep
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "raw time.sleep in a runtime path: wait on futures "
                    "under a RetryPolicy.task_timeout deadline instead, "
                    "so tests never wall-clock wait",
                )

    @staticmethod
    def _imports_sleep_from_time(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "sleep" for alias in node.names):
                    return True
        return False

    @staticmethod
    def _is_time_sleep(node: ast.Call, sleep_is_time_sleep: bool) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "sleep":
            return isinstance(func.value, ast.Name) and func.value.id == "time"
        if isinstance(func, ast.Name) and func.id == "sleep":
            return sleep_is_time_sleep
        return False

    @staticmethod
    def _is_unbounded_retry(node: ast.While) -> bool:
        if not _is_infinite_while(node):
            return False
        for inner in _walk_no_defs(node.body):
            if isinstance(inner, ast.Try) and any(
                _handler_swallows(h) for h in inner.handlers
            ):
                return True
        return False
