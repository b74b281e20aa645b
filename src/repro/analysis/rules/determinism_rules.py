"""ORL003/ORL004 — cross-run and cross-executor determinism rules.

The cluster simulator replays measured task records, and the executor
equivalence property (serial == processes, bit-identical
alignments) is the repo's core correctness claim. Both break the moment any
task draws from global randomness or lets ``set`` iteration order leak into
its output.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.engine import FileContext, Rule
from repro.analysis.findings import Severity

#: numpy.random attributes that are fine to touch: explicitly seeded
#: generator construction and the generator/bit-generator types themselves.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Consumers whose result does not depend on iteration order; an unordered
#: iterable feeding one of these is harmless.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {
        "sum",
        "min",
        "max",
        "any",
        "all",
        "len",
        "set",
        "frozenset",
        "sorted",
        "dict",
        "Counter",
    }
)

_DICT_VIEW_METHODS = frozenset({"values", "keys", "items"})


class UnseededRandomnessRule(Rule):
    """ORL003: no unseeded randomness outside :mod:`repro.util.rng`.

    ``random.*`` and the legacy ``np.random.*`` module-level functions draw
    from hidden global state, so identical invocations produce different
    task outputs and durations — poison for a reproduction whose simulator
    replays measured records. All randomness must flow from seeded
    ``np.random.Generator`` objects built by ``repro.util.rng``.
    """

    rule_id = "ORL003"
    title = "unseeded randomness"
    severity = Severity.ERROR
    invariant = (
        "identical invocations must produce identical map/reduce outputs; "
        "global RNG state breaks replay of measured task records"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        random_aliases, from_random = self._random_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in from_random:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"call to stdlib random.{from_random[func.id]}() uses "
                    f"hidden global state; draw from a repro.util.rng "
                    f"generator instead",
                )
            elif isinstance(func, ast.Attribute):
                yield from self._check_attribute_call(
                    node, func, random_aliases
                )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _random_imports(
        tree: ast.Module,
    ) -> Tuple[Set[str], Dict[str, str]]:
        """Names bound to the stdlib ``random`` module and names imported
        from it (alias -> original function name)."""
        module_aliases: Set[str] = set()
        imported: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        module_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    imported[alias.asname or alias.name] = alias.name
        return module_aliases, imported

    def _check_attribute_call(
        self, node: ast.Call, func: ast.Attribute, random_aliases: Set[str]
    ) -> Iterator[Tuple[int, int, str]]:
        # random.<fn>(...)
        if isinstance(func.value, ast.Name) and func.value.id in random_aliases:
            yield (
                node.lineno,
                node.col_offset,
                f"call to stdlib random.{func.attr}() uses hidden global "
                f"state; draw from a repro.util.rng generator instead",
            )
            return
        # <np>.random.<fn>(...)
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
        ):
            if func.attr not in _NP_RANDOM_ALLOWED:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"np.random.{func.attr}() draws from numpy's global "
                    f"RNG; build a seeded Generator via repro.util.rng",
                )
            elif func.attr == "default_rng" and not node.args and not node.keywords:
                yield (
                    node.lineno,
                    node.col_offset,
                    "np.random.default_rng() without a seed is entropy-"
                    "seeded; pass an explicit seed (see repro.util.rng)",
                )


class UnorderedIterationRule(Rule):
    """ORL004: no unordered iteration feeding ordered output.

    ``set`` iteration order varies across processes (hash randomization) and
    dict-view materialization encodes incidental insertion order; both leak
    scheduling artifacts into task output, breaking the executor-equivalence
    property. Wrap the iterable in ``sorted(...)`` — or feed it to an
    order-insensitive consumer (``sum``, ``min``, ``set``, ...), which this
    rule recognizes and allows.
    """

    rule_id = "ORL004"
    title = "unordered iteration feeds ordered output"
    severity = Severity.WARNING
    invariant = (
        "task output must be a pure function of input, not of hash seeds "
        "or insertion history: serial == processes"
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter):
                    yield (
                        node.iter.lineno,
                        node.iter.col_offset,
                        "iterating a set in statement order; wrap it in "
                        "sorted(...) to pin the order",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
            ):
                yield from self._check_comprehension(node, parents)
            elif isinstance(node, ast.Call):
                yield from self._check_materialization(node)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _is_set_expr(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        return False

    @staticmethod
    def _dict_view_method(expr: ast.expr) -> Optional[str]:
        """``values``/``keys``/``items`` if ``expr`` is a dict-view call."""
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _DICT_VIEW_METHODS
            and not expr.args
            and not expr.keywords
        ):
            return expr.func.attr
        return None

    def _check_comprehension(
        self,
        node: ast.expr,
        parents: Dict[ast.AST, ast.AST],
    ) -> Iterator[Tuple[int, int, str]]:
        order_insensitive_result = isinstance(node, (ast.SetComp, ast.DictComp))
        consumer = parents.get(node)
        fed_to_insensitive = (
            isinstance(consumer, ast.Call)
            and isinstance(consumer.func, ast.Name)
            and consumer.func.id in _ORDER_INSENSITIVE_CALLS
        )
        generators = getattr(node, "generators", [])
        for gen in generators:
            view_method = self._dict_view_method(gen.iter)
            if self._is_set_expr(gen.iter):
                yield (
                    gen.iter.lineno,
                    gen.iter.col_offset,
                    "comprehension iterates a set; wrap it in sorted(...) "
                    "to pin the order",
                )
            elif (
                view_method is not None
                and not order_insensitive_result
                and not fed_to_insensitive
            ):
                yield (
                    gen.iter.lineno,
                    gen.iter.col_offset,
                    f"comprehension materializes .{view_method}() in "
                    f"incidental insertion order; sort explicitly or "
                    f"feed an order-insensitive consumer",
                )

    def _check_materialization(
        self, node: ast.Call
    ) -> Iterator[Tuple[int, int, str]]:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
        ):
            view_method = self._dict_view_method(node.args[0])
            if view_method is not None:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{node.func.id}(....{view_method}()) freezes incidental "
                    f"insertion order into a sequence; sort explicitly",
                )
