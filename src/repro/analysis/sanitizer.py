"""A TSan-lite for the MapReduce layer: detect cross-task state mutation.

The serial executor runs every task against one shared job object; any task
that mutates job state (mapper/reducer attributes, captured containers,
split payloads) leaks into the tasks after it there and silently diverges
under the process executor (each worker mutates its own copy). The AST rules
catch the statically visible shapes; :class:`SanitizerExecutor` catches the
rest at runtime.

It executes tasks one at a time against that one shared job object — the
serial executor's semantics — and fingerprints the job's
*shipped* state (its pickle, the exact bytes the process executor sends to
workers) plus every split payload between tasks. Any fingerprint change is
attributed to the task that just ran and reported as a
:class:`SharedStateMutation`. Per-worker transient caches that
``__getstate__`` excludes from the pickle (e.g. Orion's subject k-mer
cache) are deliberately invisible: they never cross an executor boundary,
so mutating them is not a race in this model.

Overhead is one job pickle per task — run it in tests and under
``--sanitize``, not in production paths.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import _assemble, _measure_map, _measure_reduce
from repro.mapreduce.types import InputSplit, JobResult, TaskRecord

#: Job attributes fingerprinted separately so a report names the component
#: that mutated, not just "the job".
_COMPONENTS = ("mapper", "reducer", "partitioner", "combiner")


@dataclass(frozen=True)
class SharedStateMutation:
    """One detected cross-task mutation of shared state."""

    task_id: str
    component: str  # "mapper", "reducer", ..., or "split[3].payload"
    before_digest: str
    after_digest: str

    def __str__(self) -> str:
        return (
            f"task {self.task_id} mutated shared state in {self.component} "
            f"({self.before_digest[:12]} -> {self.after_digest[:12]})"
        )


class SharedStateMutationError(RuntimeError):
    """Raised by :class:`SanitizerExecutor` (``on_mutation='raise'``) after a
    run that detected shared-state mutation."""

    def __init__(self, mutations: Sequence[SharedStateMutation]) -> None:
        self.mutations = list(mutations)
        summary = "; ".join(str(m) for m in self.mutations)
        super().__init__(
            f"{len(self.mutations)} cross-task shared-state mutation(s) "
            f"detected: {summary}"
        )


def fingerprint(obj: Any) -> str:
    """Stable digest of an object's shipped state.

    Prefers the pickle bytes (exactly what the process executor ships);
    falls back to a structural ``repr`` walk for unpicklable objects so the
    sanitizer still sees container mutations inside them.
    """
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        payload = _structural_repr(obj, depth=0).encode("utf-8", "replace")
    return hashlib.sha256(payload).hexdigest()


def _structural_repr(obj: Any, depth: int) -> str:
    if depth > 6:
        return "<deep>"
    if isinstance(obj, dict):
        # Insertion order is *part of the fingerprinted state* (pickle
        # encodes it too), so iterating it here is intentional.
        items = ", ".join(
            f"{_structural_repr(k, depth + 1)}: {_structural_repr(v, depth + 1)}"
            for k, v in obj.items()  # orionlint: disable=ORL004
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        items = ", ".join(_structural_repr(v, depth + 1) for v in obj)
        return ("[%s]" if isinstance(obj, list) else "(%s)") % items
    if isinstance(obj, (set, frozenset)):
        items = ", ".join(sorted(_structural_repr(v, depth + 1) for v in obj))
        return "{" + items + "}"
    state = getattr(obj, "__dict__", None)
    if state is not None and not callable(obj):
        return f"{type(obj).__name__}({_structural_repr(state, depth + 1)})"
    if callable(obj):
        # Closures: fingerprint captured cell contents, the mutable part.
        cells = getattr(obj, "__closure__", None) or ()
        captured = [getattr(c, "cell_contents", None) for c in cells]
        return (
            f"{getattr(obj, '__qualname__', repr(obj))}"
            f"[{_structural_repr(captured, depth + 1)}]"
        )
    return repr(obj)


class SanitizerExecutor:
    """Executor that detects cross-task shared-state mutation.

    Drop-in for any :class:`~repro.mapreduce.runtime.Executor` slot. Runs
    tasks sequentially against one shared job object and compares state
    fingerprints after every task. Results are
    identical to :class:`~repro.mapreduce.runtime.SerialExecutor`'s; task
    records are tagged ``executor="sanitizer"`` so they are never mistaken
    for simulator-safe measurements.

    Parameters
    ----------
    on_mutation:
        ``"raise"`` (default) raises :class:`SharedStateMutationError` at
        the end of the run; ``"warn"`` emits one :class:`RuntimeWarning`
        per mutation; ``"record"`` only collects into :attr:`reports`.
    check_payloads:
        Also fingerprint every split payload (catches tasks mutating their
        or a sibling's input in place). On by default.
    """

    kind = "sanitizer"

    def __init__(self, on_mutation: str = "raise", check_payloads: bool = True) -> None:
        if on_mutation not in ("raise", "warn", "record"):
            raise ValueError(
                f"on_mutation must be 'raise', 'warn' or 'record', "
                f"got {on_mutation!r}"
            )
        self.on_mutation = on_mutation
        self.check_payloads = check_payloads
        self.reports: List[SharedStateMutation] = []

    # ------------------------------------------------------------------ #

    def _snapshot(
        self, job: MapReduceJob, splits: Sequence[InputSplit]
    ) -> Dict[str, str]:
        snap = {name: fingerprint(getattr(job, name)) for name in _COMPONENTS}
        if self.check_payloads:
            for split in splits:
                snap[f"split[{split.index}].payload"] = fingerprint(split.payload)
        return snap

    def _compare(
        self, task_id: str, before: Dict[str, str], after: Dict[str, str]
    ) -> Dict[str, str]:
        for component in before:
            if after[component] != before[component]:
                self.reports.append(
                    SharedStateMutation(
                        task_id=task_id,
                        component=component,
                        before_digest=before[component],
                        after_digest=after[component],
                    )
                )
        return after

    def _finish(self, result: JobResult) -> JobResult:
        if self.reports and self.on_mutation == "raise":
            raise SharedStateMutationError(self.reports)
        if self.reports and self.on_mutation == "warn":
            for mutation in self.reports:
                warnings.warn(str(mutation), RuntimeWarning, stacklevel=3)
        return result

    # ------------------------------------------------------------------ #

    def run(self, job: MapReduceJob, splits: Sequence[InputSplit]) -> JobResult:
        state = self._snapshot(job, splits)

        map_outputs: List[List[Tuple[Any, Any]]] = []
        records: List[TaskRecord] = []
        for split in splits:
            pairs, rec = _measure_map(job, split, executor=self.kind)
            map_outputs.append(pairs)
            records.append(rec)
            state = self._compare(rec.task_id, state, self._snapshot(job, splits))

        partitions = job.shuffle(map_outputs, splits)
        state = self._compare(
            f"{job.name}/shuffle", state, self._snapshot(job, splits)
        )

        outputs: List[List[Any]] = []
        for p, groups in enumerate(partitions):
            out, rec = _measure_reduce(job, p, groups, executor=self.kind)
            outputs.append(out)
            records.append(rec)
            state = self._compare(rec.task_id, state, self._snapshot(job, splits))

        return self._finish(_assemble(job, partitions, outputs, records))
