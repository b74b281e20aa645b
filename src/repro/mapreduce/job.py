"""MapReduce job definition and the shuffle.

A :class:`MapReduceJob` bundles the user code (mapper, reducer);
executors in :mod:`repro.mapreduce.runtime` drive it. The shuffle groups
all map output by key and sorts the keys (Hadoop's sort-based shuffle), so
the driver reduces keys in order and each key's values keep map-task
order — deterministic end to end.

Task callables must be *pure functions of their input* (the invariants
orionlint and the race sanitizer enforce, DESIGN.md §4.4). Fault tolerance
leans on this purity too: the task scheduler (§4.6) may run the same task
twice — a retry after a failure, a duplicate racing a straggler — and
commit whichever attempt finishes first, which is only sound because every
attempt of a task produces identical output and no attempt leaves
observable side effects behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.mapreduce.types import InputSplit

#: mapper: InputSplit -> iterable of (key, value)
Mapper = Callable[[InputSplit], Iterable[Tuple[Any, Any]]]
#: reducer: (key, values) -> that key's result
Reducer = Callable[[Any, List[Any]], Any]


@dataclass
class MapReduceJob:
    """One MapReduce program.

    Attributes
    ----------
    mapper / reducer:
        The user map and reduce functions. Only the mapper travels to
        pool workers; the reducer runs in the driver, once per key.
    name:
        Label used in task ids and logs.
    """

    mapper: Mapper
    reducer: Reducer
    name: str = "job"

    def __post_init__(self) -> None:
        if not callable(self.mapper) or not callable(self.reducer):
            raise TypeError("mapper and reducer must be callable")


def shuffle(
    map_outputs: Sequence[Sequence[Tuple[Any, Any]]]
) -> List[Tuple[Any, List[Any]]]:
    """Group all map output by key (the driver-side shuffle).

    ``map_outputs`` come in split order. Returns key-sorted
    ``(key, [values...])`` groups whose values keep map-task order.
    """
    return group_by_key(pair for task_output in map_outputs for pair in task_output)


def group_by_key(pairs: Iterable[Tuple[Any, Any]]) -> List[Tuple[Any, List[Any]]]:
    """Group (key, value) pairs by key; keys sorted, values in input order."""
    buckets: Dict[Any, List[Any]] = {}
    for key, value in pairs:
        buckets.setdefault(key, []).append(value)
    return [(key, buckets[key]) for key in sorted(buckets.keys())]
