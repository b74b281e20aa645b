"""Dead-code guard: every name `src/repro` defines is used by the program.

The scan parses ``src/repro`` with :mod:`ast` and lists each module-level
function, class and constant, and each public method. A definition is
*reachable* when its bare name occurs somewhere in ``src/``, ``benchmarks/``
or ``examples/`` outside the definition itself. Occurrences that only
publish a name do not count: an ``__init__.py`` re-export (``from x import
name``) and ``__all__``. Files under ``tests/`` do not count either: a name
only tests use is a test helper or an oracle and lives in the tests.

Matching by bare name is deliberately loose (any ``.run`` reaches every
``run`` method), so the scan misses some dead code but never flags live
code. The few names reached only by dynamic dispatch are listed in
:data:`ALLOWED` with the reason each one stays.
"""

from __future__ import annotations

import ast
import fnmatch
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Trees whose code counts as a use of a name.
USERS = ("src", "benchmarks", "examples")

#: ``module:qualname`` patterns (fnmatch) exempt from the scan, each with
#: the reason the name stays although nothing names it.
ALLOWED: Dict[str, str] = {
    "repro.analysis.rules.*:*.visit_*": (
        "ast.NodeVisitor dispatches to visit_<NodeType> by name"
    ),
    "repro.mapreduce.shm:detach_cached_views": (
        "test isolation: drops the per-process cached plane views that a "
        "worker keeps for its lifetime"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _top_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module statements, looking through top-level ``if`` / ``try``."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _top_level(node.body)
            yield from _top_level(node.orelse)
        elif isinstance(node, ast.Try):
            yield from _top_level(node.body)
            for handler in node.handlers:
                yield from _top_level(handler.body)
            yield from _top_level(node.orelse)
            yield from _top_level(node.finalbody)
        else:
            yield node


def definitions(tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """``(qualname, name, node)`` for each definition the scan checks."""
    for node in _top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node


def _publishing(tree: ast.Module, is_init: bool) -> List[ast.AST]:
    """Nodes whose names only publish: ``__all__`` and, in a package
    ``__init__``, its imports."""
    out: List[ast.AST] = []
    for node in tree.body:
        if is_init and isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                out.append(node)
    return out


def names_in(node: ast.AST) -> Counter:
    """Every identifier a subtree names: loads, attributes, imports."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
    return found


def usage() -> Counter:
    """Identifier counts over every file that counts as a user."""
    total: Counter = Counter()
    for tree_name in USERS:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            total.update(names_in(tree))
            total.subtract(
                sum(
                    (names_in(node) for node in _publishing(tree, path.name == "__init__.py")),
                    Counter(),
                )
            )
    return total


def unreferenced() -> List[str]:
    """``module:qualname`` of every definition nothing else names."""
    used = usage()
    dead: List[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path)
        for qualname, name, node in definitions(tree):
            # The definition's own occurrences (a constant's assignment
            # target, a recursive call) are not uses.
            if used[name] - names_in(node)[name] <= 0:
                dead.append(f"{module}:{qualname}")
    return dead


def _allowed(entry: str) -> bool:
    return any(fnmatch.fnmatchcase(entry, pattern) for pattern in ALLOWED)


def test_every_definition_in_src_is_referenced():
    dead = [entry for entry in unreferenced() if not _allowed(entry)]
    assert dead == [], (
        "defined in src/repro but named nowhere in src/, benchmarks/ or "
        "examples/ (move test-only helpers into tests/): " + ", ".join(dead)
    )


def test_every_allowlist_entry_is_needed():
    dead = unreferenced()
    stale = [p for p in ALLOWED if not any(fnmatch.fnmatchcase(e, p) for e in dead)]
    assert stale == [], f"allowlist entries that match nothing unreferenced: {stale}"


def test_scan_lists_definitions_and_discounts_reexports():
    """The scan itself: every kind of definition is listed, and a name an
    ``__init__`` only re-exports and lists in ``__all__`` counts no use."""
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def orphan():\n    return used()\n\n"
        "LIMIT = 3\n\n"
        "class Box:\n    def open(self):\n        pass\n\n"
        "    def _peek(self):\n        pass\n"
    )
    found = {qualname for qualname, _, _ in definitions(tree)}
    assert found == {"used", "orphan", "LIMIT", "Box", "Box.open"}
    init = ast.parse("from pkg.mod import orphan\n__all__ = ['orphan']\n")
    published = sum((names_in(n) for n in _publishing(init, True)), Counter())
    assert names_in(init) - published == Counter()
