"""MapReduce job definition and the shuffle.

A :class:`MapReduceJob` bundles the user code (mapper, reducer,
partitioner); executors in :mod:`repro.mapreduce.runtime` drive it.
The shuffle groups map output by key *within each partition* and sorts keys
(Hadoop's sort-based shuffle), so reducers see keys in order and value lists
in map-task order — deterministic end to end.

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

from repro.mapreduce.partitioner import Partitioner, hash_partitioner
from repro.mapreduce.types import InputSplit

#: mapper: InputSplit -> iterable of (key, value)
Mapper = Callable[[InputSplit], Iterable[Tuple[Any, Any]]]
#: reducer: (key, values) -> iterable of output items
Reducer = Callable[[Any, List[Any]], Iterable[Any]]


@dataclass
class MapReduceJob:
    """One MapReduce program.

    Attributes
    ----------
    mapper / reducer:
        The user map and reduce functions.
    num_reducers:
        Reduce-side parallelism (paper: multiple reducers working on
        different database sequences / score ranges in parallel).
    partitioner:
        Key → reducer index; defaults to deterministic hashing.
    name:
        Label used in task ids and logs.
    """

    mapper: Mapper
    reducer: Reducer
    num_reducers: int = 1
    partitioner: Partitioner = hash_partitioner
    name: str = "job"

    def __post_init__(self) -> None:
        if self.num_reducers <= 0:
            raise ValueError(f"num_reducers must be positive, got {self.num_reducers}")
        if not callable(self.mapper) or not callable(self.reducer):
            raise TypeError("mapper and reducer must be callable")

    # ------------------------------------------------------------------ #

    def run_map_task(self, split: InputSplit) -> List[Tuple[Any, Any]]:
        """Execute the mapper for one split."""
        return list(self.mapper(split))

    def shuffle(
        self, map_outputs: Sequence[Sequence[Tuple[Any, Any]]]
    ) -> List[List[Tuple[Any, List[Any]]]]:
        """Partition and group all map output (the driver-side shuffle).

        ``map_outputs`` come in split order. Returns, per reducer
        partition, a key-sorted list of ``(key, [values...])`` groups whose
        values keep map-task order.
        """
        partitions: List[List[Tuple[Any, Any]]] = [[] for _ in range(self.num_reducers)]
        for task_output in map_outputs:
            for key, value in task_output:
                p = self.partitioner(key, self.num_reducers)
                if not 0 <= p < self.num_reducers:
                    raise ValueError(
                        f"partitioner returned {p} for key {key!r} "
                        f"(num_reducers={self.num_reducers})"
                    )
                partitions[p].append((key, value))
        return [group_by_key(part) for part in partitions]

    def run_reduce_task(
        self, groups: Sequence[Tuple[Any, List[Any]]]
    ) -> List[Any]:
        """Execute the reducer over one partition's key groups."""
        out: List[Any] = []
        for key, values in groups:
            out.extend(self.reducer(key, values))
        return out


def group_by_key(pairs: Iterable[Tuple[Any, Any]]) -> List[Tuple[Any, List[Any]]]:
    """Group (key, value) pairs by key; keys sorted, values in input order."""
    buckets: Dict[Any, List[Any]] = {}
    for key, value in pairs:
        buckets.setdefault(key, []).append(value)
    return [(key, buckets[key]) for key in sorted(buckets.keys())]
