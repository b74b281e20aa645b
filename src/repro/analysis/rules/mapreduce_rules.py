"""ORL001/ORL002 — invariants on callables handed to :class:`MapReduceJob`.

The process-pool executor ships the job's mapper to workers by pickle, and
the serial executor runs every task against one shared job object. Both demand
the Hadoop contract the paper's design assumes: task callables are
*module-level* (hence picklable by reference) and *pure* with respect to
shared state (anything they mutate outside their own scope diverges across
executors — the PR-1 reducer-stats bug).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.engine import FileContext, Rule
from repro.analysis.findings import Severity
from repro.analysis.scopes import (
    FunctionNode,
    find_shared_mutations,
    module_callables,
)

#: MapReduceJob parameters that receive task callables, with their
#: positional indices in the dataclass field order.
TASK_PARAMS: Dict[str, int] = {
    "mapper": 0,
    "reducer": 1,
}
_INDEX_TO_PARAM = {index: name for name, index in TASK_PARAMS.items()}

JOB_TYPE_NAME = "MapReduceJob"


def _is_job_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == JOB_TYPE_NAME
    if isinstance(func, ast.Attribute):
        return func.attr == JOB_TYPE_NAME
    return False


def _task_arguments(call: ast.Call) -> Iterator[Tuple[str, ast.expr]]:
    """The (parameter name, value expression) pairs carrying task callables."""
    for index, arg in enumerate(call.args):
        name = _INDEX_TO_PARAM.get(index)
        if name is not None:
            yield name, arg
    for keyword in call.keywords:
        if keyword.arg in TASK_PARAMS:
            yield keyword.arg, keyword.value


class _JobCallCollector(ast.NodeVisitor):
    """Find MapReduceJob(...) calls and resolve Name arguments to the scope
    that defines them (module level vs. some enclosing function)."""

    def __init__(self) -> None:
        #: (call, param, value, defining function node or None, nested?)
        self.sites: List[
            Tuple[ast.Call, str, ast.expr, Optional[ast.AST], bool]
        ] = []
        self._function_stack: List[Dict[str, ast.AST]] = []
        self._module_defs: Dict[str, ast.AST] = {}

    # -- scope bookkeeping --------------------------------------------- #

    def visit_Module(self, node: ast.Module) -> None:
        self._module_defs = module_callables(node)
        self.generic_visit(node)

    def _visit_function(self, node: FunctionNode) -> None:
        frame: Dict[str, ast.AST] = {}
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                frame.setdefault(child.name, child)
            elif isinstance(child, ast.Assign) and isinstance(
                child.value, ast.Lambda
            ):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        frame.setdefault(target.id, child.value)
        self._function_stack.append(frame)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- call sites ----------------------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        if _is_job_call(node):
            for param, value in _task_arguments(node):
                defining, nested = self._resolve(value)
                self.sites.append((node, param, value, defining, nested))
        self.generic_visit(node)

    def _resolve(self, value: ast.expr) -> Tuple[Optional[ast.AST], bool]:
        """Resolve a task argument to its definition, if statically known.

        Returns ``(definition node, defined-in-nested-scope?)``; definition
        is ``None`` for expressions we cannot (or need not) resolve —
        attributes, call results, imported names.
        """
        if isinstance(value, ast.Lambda):
            return value, bool(self._function_stack)
        if not isinstance(value, ast.Name):
            return None, False
        for frame in reversed(self._function_stack):
            if value.id in frame:
                return frame[value.id], True
        return self._module_defs.get(value.id), False


def _collect_sites(ctx: FileContext) -> List[
    Tuple[ast.Call, str, ast.expr, Optional[ast.AST], bool]
]:
    collector = _JobCallCollector()
    collector.visit(ctx.tree)
    return collector.sites


class TaskCallablePicklableRule(Rule):
    """ORL001: task callables must be module-level (picklable by reference).

    Lambdas and functions defined inside another function pickle by
    *qualified name*, which fails (or resolves wrongly) in worker processes;
    the process executor then silently degrades to serial execution. Classes
    and attribute references pass — instances pickle by state, the
    sanctioned way to parameterize a task.
    """

    rule_id = "ORL001"
    title = "task callable is not module-level"
    severity = Severity.ERROR
    invariant = (
        "process executor ships the job by pickle; only module-level "
        "callables (or instances of module-level classes) survive the trip"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        for call, param, value, defining, nested in _collect_sites(ctx):
            if isinstance(value, ast.Lambda):
                yield (
                    value.lineno,
                    value.col_offset,
                    f"lambda passed as MapReduceJob {param}= is not "
                    f"picklable; define a module-level function or callable "
                    f"class instead",
                )
            elif isinstance(defining, ast.Lambda):
                # Name bound to a lambda: unpicklable wherever it lives
                # (lambdas have no stable qualified name).
                yield (
                    value.lineno,
                    value.col_offset,
                    f"MapReduceJob {param}= resolves to a lambda assignment; "
                    f"lambdas are not picklable — use a def",
                )
            elif nested and isinstance(
                defining, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield (
                    value.lineno,
                    value.col_offset,
                    f"MapReduceJob {param}= is the nested function "
                    f"{defining.name!r}; nested functions are not picklable "
                    f"— move it to module level",
                )


class TaskCallableMutationRule(Rule):
    """ORL002: task callables must not mutate captured or global state.

    A mapper/reducer that appends to a closed-over list or updates a global
    dict produces different results per executor: serial tasks see each
    other's writes on the shared object, process tasks mutate a
    worker-local copy that silently vanishes (how reducer stats were once
    lost). Return such state from the task instead (Orion's reducer
    returns its ``AggregationStats`` beside the alignments).
    """

    rule_id = "ORL002"
    title = "task callable mutates shared state"
    severity = Severity.ERROR
    invariant = (
        "map/reduce tasks must be pure w.r.t. shared state: closure/global "
        "mutation is lost under processes and leaks between serial tasks"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        seen: set = set()
        for call, param, value, defining, nested in _collect_sites(ctx):
            if not isinstance(defining, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if id(defining) in seen:
                continue
            seen.add(id(defining))
            for mutation in find_shared_mutations(defining):
                yield (
                    mutation.line,
                    mutation.col,
                    f"task callable {defining.name!r} ({param}=) mutates "
                    f"{mutation.name!r} from an enclosing scope "
                    f"({mutation.how}); emit the state through the task "
                    f"output stream instead",
                )
