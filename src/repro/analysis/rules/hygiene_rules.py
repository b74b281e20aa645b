"""ORL005/ORL006/ORL007 — hygiene rules for measurement-bearing code.

These target the bug shapes PR 1 actually hit: mutable defaults aliasing
state across task invocations, exception handlers that hide executor
failures (masking e.g. the silent serial fallback), and measurement fields
stuffed with literals instead of measured values (the hardcoded
``input_records=1`` bug in ``_measure_map``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Tuple

from repro.analysis.engine import FileContext, Rule
from repro.analysis.findings import Severity

#: Keyword names that denote measured record counts anywhere.
_RECORDS_RE = re.compile(r"_records$")
#: ``*_count`` only counts as a measurement when handed to a record type.
_COUNT_RE = re.compile(r"_count$")
_RECORD_TYPE_RE = re.compile(r"Record$")


def _is_mutable_literal(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("list", "dict", "set", "bytearray", "defaultdict")
    return False


class MutableDefaultRule(Rule):
    """ORL005: no mutable default arguments.

    A mutable default is one object shared by every call — in a task
    callable it is shared state smuggled past ORL002, mutated cumulatively
    under the serial executor and divergently under processes.
    """

    rule_id = "ORL005"
    title = "mutable default argument"
    severity = Severity.ERROR
    invariant = (
        "task invocations must not alias state through defaults; one "
        "default object is shared by every call in the process"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if _is_mutable_literal(default):
                    name = getattr(node, "name", "<lambda>")
                    yield (
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {name!r}; default to "
                        f"None and build the object inside the function",
                    )


class BareExceptRule(Rule):
    """ORL006: no bare ``except:`` and no silently swallowed exceptions.

    The executors' fallback paths depend on exceptions propagating honestly
    (an over-broad swallow turns "process pool broke" into "results look
    fine but ran serial"). Bare excepts additionally catch
    ``KeyboardInterrupt``/``SystemExit``, hanging worker shutdown.
    """

    rule_id = "ORL006"
    title = "bare or swallowed except"
    severity = Severity.ERROR
    invariant = (
        "executor fallbacks and task failures must surface; a swallowed "
        "exception silently changes which backend produced the results"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "name the exception type",
                )
            elif self._swallows(node):
                yield (
                    node.lineno,
                    node.col_offset,
                    "exception handler silently swallows the error (body is "
                    "only pass/...); handle it, log it, or re-raise",
                )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True


class LiteralMeasurementRule(Rule):
    """ORL007: measurement fields must carry measured values, not literals.

    ``TaskRecord(input_records=1)``-style hardcoding is how the
    ``_measure_map`` bug shipped: the record *looked* measured but carried a
    constant, corrupting every downstream per-record statistic. Flags
    nonzero numeric literals bound to ``*_records`` keywords anywhere and to
    ``*_count`` keywords of ``*Record`` constructors.
    """

    rule_id = "ORL007"
    title = "literal assigned to measurement field"
    severity = Severity.WARNING
    invariant = (
        "TaskRecord/WorkUnitRecord fields feed the cluster simulator; a "
        "literal where a measurement belongs corrupts replay silently"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = self._callee_name(node)
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                if not self._is_measurement_param(keyword.arg, callee):
                    continue
                value = keyword.value
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, (int, float))
                    and not isinstance(value.value, bool)
                    and value.value != 0
                ):
                    yield (
                        value.lineno,
                        value.col_offset,
                        f"literal {value.value!r} assigned to measurement "
                        f"field {keyword.arg!r}; pass the measured value "
                        f"(or suppress if one-per-unit is definitional)",
                    )

    @staticmethod
    def _callee_name(call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    @staticmethod
    def _is_measurement_param(name: str, callee: Optional[str]) -> bool:
        if _RECORDS_RE.search(name):
            return True
        return bool(
            _COUNT_RE.search(name)
            and callee is not None
            and _RECORD_TYPE_RE.search(callee)
        )
