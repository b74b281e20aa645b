"""ORL008/ORL010 — acquired machine resources need a paired release path.

Every shared-memory segment the program creates follows
:mod:`repro.mapreduce.shm`'s one rule: it is a plain ``/dev/shm`` file with
an owner file whose ``flock`` a live process holds, and one reaper,
``reap_orphan_planes``, sweeps whatever no lock holds. A
``multiprocessing.shared_memory.SharedMemory`` object sits outside that
rule. It owns two resources — the process-local mapping (released by
``close()``) and the named segment itself (released by ``unlink()``) — and
no owner lock, so the reaper never learns its name and nothing reclaims it
after a SIGKILL. A code path that creates or attaches one and then raises
leaks the mapping for the process lifetime and, on the create side, the
segment for the *machine* lifetime. The program creates none; ORL008
requires any ``SharedMemory`` call that does appear to pair with
``close``/``unlink`` on its failure paths.

Plane *leases* (ORL010) have the same shape one level up: a
``PlaneRegistry.attach_or_create`` call takes a shared ``flock`` on the
plane's registry segment, and a scope that acquires a lease and raises before
releasing it keeps the plane held until the process exits — correctness
survives (the atexit drain, or after a crash the orphan reaper, reclaims
it), but the plane outlives its last real user. Both rules share one scope-accounting engine and differ
only in what counts as an acquisition and what counts as a release.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.engine import FileContext, Rule
from repro.analysis.findings import Severity


class SharedMemoryLifecycleRule(Rule):
    """ORL008: SharedMemory create/attach needs a paired close/unlink.

    Such a segment has no owner lock, so the one reaper cannot reclaim it
    (see the module docstring). An acquisition call is accepted when it
    is the context expression of a ``with`` statement, or when its
    enclosing function (or module toplevel) contains a ``try``/``finally`` whose ``finally`` calls a
    release method — the shapes under which an exception between acquire
    and release cannot leak the segment. Anything else is an unpaired
    acquisition. Subclasses redefine what acquires and what releases; the
    scope accounting (per-def, ``with``-guard, release-``finally``) is
    shared.
    """

    rule_id = "ORL008"
    title = "SharedMemory without paired close/unlink"
    severity = Severity.ERROR
    invariant = (
        "every shared-memory segment acquired (create or attach) must have "
        "a release path that runs on failure too, or /dev/shm leaks"
    )

    #: Method names (``obj.<name>()``) that release the resource.
    release_methods: Tuple[str, ...] = ("close", "unlink")
    #: Bare function names (``<name>()``) that release the resource.
    release_functions: Tuple[str, ...] = ()
    #: The finding message for an unpaired acquisition.
    message = (
        "SharedMemory acquired without a paired close/unlink in "
        "a finally or context manager; use the "
        "repro.mapreduce.shm helpers or add a try/finally"
    )

    def _is_acquisition(self, node: ast.AST) -> bool:
        """Whether ``node`` is a call of ``SharedMemory(...)`` (any spelling)."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "SharedMemory"
        if isinstance(func, ast.Attribute):
            return func.attr == "SharedMemory"
        return False

    def _releases(self, nodes: List[ast.stmt]) -> bool:
        """Whether any statement calls a release method or function."""
        for stmt in nodes:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.release_methods
                ):
                    return True
                if (
                    isinstance(func, ast.Name)
                    and func.id in self.release_functions
                ):
                    return True
        return False

    # -- scope accounting (shared by subclasses) ------------------------ #

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        yield from self._check_scope(ctx.tree.body)

    def _check_scope(self, body: List[ast.stmt]) -> Iterator[Tuple[int, int, str]]:
        """Check one function (or module) body, recursing into nested defs.

        Pairing is judged per scope: a ``finally`` in a *caller* cannot
        guard an acquisition made inside a function that returns the
        resource, so each def is its own accounting unit.
        """
        with_guarded = self._with_context_calls(body)
        has_release_finally = any(
            isinstance(node, ast.Try) and self._releases(node.finalbody)
            for stmt in body
            for node in self._walk_scope(stmt)
        )
        for stmt in body:
            for node in self._walk_scope(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_scope(node.body)
                    continue
                if not self._is_acquisition(node):
                    continue
                if id(node) in with_guarded or has_release_finally:
                    continue
                yield (node.lineno, node.col_offset, self.message)

    def _with_context_calls(self, body: List[ast.stmt]) -> Set[int]:
        """ids of acquisition calls used directly as ``with`` contexts."""
        guarded: Set[int] = set()
        for stmt in body:
            for node in self._walk_scope(stmt):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if self._is_acquisition(item.context_expr):
                            guarded.add(id(item.context_expr))
        return guarded

    @staticmethod
    def _walk_scope(stmt: ast.stmt) -> Iterator[ast.AST]:
        """Walk ``stmt`` without descending into function defs.

        Defs are yielded (so :meth:`_check_scope` can recurse into them as
        their own accounting unit) but never entered here — otherwise a
        nested def's acquisitions would be double-counted in the outer
        scope.
        """
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))


class PlaneLeaseLifecycleRule(SharedMemoryLifecycleRule):
    """ORL010: a plane lease acquisition needs a paired release/reap.

    ``PlaneRegistry.attach_or_create(...)`` takes a lease: a shared
    ``flock`` on the plane's registry segment. A scope that acquires one and
    can raise before releasing keeps holding the plane — harmless
    eventually (the lock dies with the process, and the atexit drain or
    the orphan reaper unlinks), but it pins the plane's segments until
    then. Accepted shapes
    mirror ORL008: the lease as a ``with`` context, or a ``finally`` in
    the same scope calling ``release``/``close``/``destroy`` or one of the
    reap entry points. Long-lived owners that hand the lease to an object
    released elsewhere (e.g. ``OrionSearch._ensure_plane`` → ``close``)
    carry a per-line waiver naming that path.
    """

    rule_id = "ORL010"
    title = "plane lease acquired without paired release/reap"
    severity = Severity.ERROR
    invariant = (
        "every plane lease taken in a scope must have a release path "
        "that runs on failure too, or the plane stays held until the "
        "process exits"
    )

    #: Calls (bare name or attribute) that acquire a lease.
    acquisition_names: Tuple[str, ...] = ("attach_or_create",)
    release_methods = ("release", "close", "destroy", "unlink")
    release_functions = ("reap_orphan_planes",)
    message = (
        "plane lease acquired without a paired release in a finally or "
        "context manager; release() the lease, use it as a context "
        "manager, or justify the ownership transfer with a waiver"
    )

    def _is_acquisition(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in self.acquisition_names
        if isinstance(func, ast.Attribute):
            return func.attr in self.acquisition_names
        return False
