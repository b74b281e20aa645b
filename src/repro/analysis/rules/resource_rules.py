"""ORL008/ORL010 — acquired machine resources need an owner and a release path.

Every shared-memory segment the program creates follows
:mod:`repro.mapreduce.shm`'s one-owner rule: it is a plain ``/dev/shm`` file
with an owner file whose ``flock`` a live process holds, and one reaper,
``reap_orphan_planes``, sweeps whatever no lock holds. Only the plane
publisher makes segments (``_publish_database_segments`` and
``PlaneRegistry._create_locked``, under the plane's registry lock). ORL008
reports a ``create_segment`` / ``write_segment`` call anywhere else: no
lock would cover that segment, so after a SIGKILL nothing reclaims it. A
pool run makes no segment at all.

ORL008 also checks ``multiprocessing.shared_memory.SharedMemory``, which
sits outside the one-owner rule altogether — it owns the process-local
mapping (released by ``close()``) and the named segment (released by
``unlink()``) and no owner lock — so any such call must pair with
``close``/``unlink`` on its failure paths. The program creates none.

Plane *leases* (ORL010) have the same shape one level up: a
``PlaneRegistry.attach_or_create`` call takes a shared ``flock`` on the
plane's registry segment, and a scope that acquires a lease and raises before
releasing it keeps the plane held until the process exits — correctness
survives (the atexit drain, or after a crash the orphan reaper, reclaims
it), but the plane outlives its last real user. Both pairing checks share
one scope-accounting engine and differ only in what counts as an
acquisition and what counts as a release.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.engine import FileContext, Rule
from repro.analysis.findings import Severity


def _called_name(node: ast.AST) -> str:
    """The callee's bare or attribute name when ``node`` is a call, else ""."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class SharedMemoryLifecycleRule(Rule):
    """ORL008: segments are made by an owner; SharedMemory pairs close/unlink.

    A ``create_segment``/``write_segment`` call is accepted only inside a
    function in :attr:`owner_functions`, the plane publisher (see the
    module docstring).

    A ``SharedMemory`` call is accepted when it is the context expression
    of a ``with`` statement, or when its enclosing function (or module
    toplevel) contains a ``try``/``finally`` whose ``finally`` calls a
    release method — the shapes under which an exception between acquire
    and release cannot leak the segment. Anything else is an unpaired
    acquisition. Subclasses redefine what acquires and what releases; the
    scope accounting (per-def, ``with``-guard, release-``finally``) is
    shared.
    """

    rule_id = "ORL008"
    title = "shared-memory segment outside an owner, or SharedMemory unpaired"
    severity = Severity.ERROR
    invariant = (
        "every /dev/shm segment is made by the plane publisher under its "
        "registry lock, and any SharedMemory acquired has a release path "
        "that runs on failure too, or /dev/shm leaks"
    )

    #: Calls that make a ``/dev/shm`` segment.
    segment_makers: Tuple[str, ...] = ("create_segment", "write_segment")
    #: Functions that may make segments: the plane publisher.
    owner_functions: Tuple[str, ...] = ("_publish_database_segments", "_create_locked")
    #: The finding message for a segment made outside an owner.
    owner_message = (
        "shared-memory segment made outside its owner (the plane "
        "publisher): no lock covers it, so the reaper cannot reclaim it "
        "after a crash"
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
        return _called_name(node) == "SharedMemory"

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
        yield from self._check_owners(ctx.tree, owned=False)

    def _check_owners(self, node: ast.AST, owned: bool) -> Iterator[Tuple[int, int, str]]:
        """Segment makers outside every owner function."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_owners(
                    child, owned or child.name in self.owner_functions
                )
                continue
            if not owned and _called_name(child) in self.segment_makers:
                yield (child.lineno, child.col_offset, self.owner_message)
            yield from self._check_owners(child, owned)

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

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        yield from self._check_scope(ctx.tree.body)

    def _is_acquisition(self, node: ast.AST) -> bool:
        return _called_name(node) in self.acquisition_names
