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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.mapreduce.partitioner import Partitioner, hash_partitioner
from repro.mapreduce.types import InputSplit

#: mapper: InputSplit -> iterable of (key, value)
Mapper = Callable[[InputSplit], Iterable[Tuple[Any, Any]]]
#: reducer: (key, values) -> iterable of output items
Reducer = Callable[[Any, List[Any]], Iterable[Any]]


class UndeclaredPartitionError(ValueError):
    """A map task's output reached a partition its split did not declare.

    That partition's reducer may already have read its inputs, so the pairs
    would be lost; the map task fails instead.
    """


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

    def partition_pairs(
        self,
        pairs: Sequence[Tuple[Any, Any]],
        sort_runs: bool = False,
        split: Optional[InputSplit] = None,
    ) -> List[List[Tuple[Any, Any]]]:
        """Partition one task's map output into per-reducer runs.

        This is the map-side half of the shuffle: the worker pool's
        streaming shuffle calls it *inside* the map task (worker-side) and
        spills the runs to shared memory; the in-process executors'
        :meth:`shuffle` calls it driver-side for every task. ``sort_runs`` additionally key-sorts each run (Hadoop's
        map-side sort). The sort is stable, so values at equal keys keep
        map-output order — :func:`group_by_key` over concatenated runs
        yields identical groups whether or not runs were pre-sorted.
        ``split`` is the split the pairs came from: a non-empty run
        outside its declared ``partitions`` raises
        :class:`UndeclaredPartitionError`.
        """
        runs: List[List[Tuple[Any, Any]]] = [[] for _ in range(self.num_reducers)]
        for key, value in pairs:
            p = self.partitioner(key, self.num_reducers)
            if not 0 <= p < self.num_reducers:
                raise ValueError(
                    f"partitioner returned {p} for key {key!r} "
                    f"(num_reducers={self.num_reducers})"
                )
            runs[p].append((key, value))
        if split is not None and split.partitions is not None:
            stray = [p for p, run in enumerate(runs) if run and p not in split.partitions]
            if stray:
                raise UndeclaredPartitionError(
                    f"job {self.name!r} split {split.index}: map output reached "
                    f"partition(s) {stray}, declared {list(split.partitions)}"
                )
        if sort_runs:
            for run in runs:
                run.sort(key=lambda kv: kv[0])
        return runs

    def merge_runs(
        self, runs: Sequence[Sequence[Tuple[Any, Any]]]
    ) -> List[Tuple[Any, List[Any]]]:
        """Reduce-side merge: concatenate one partition's runs and group.

        ``runs`` must arrive in split-index order — concatenation then
        reproduces exactly the pair order the driver-side :meth:`shuffle`
        feeds :func:`group_by_key` (per task in split order, per pair in
        map-output order), so both shuffles are deterministic and
        equivalent by construction.
        """
        merged: List[Tuple[Any, Any]] = []
        for run in runs:
            merged.extend(run)
        return group_by_key(merged)

    def shuffle(
        self,
        map_outputs: Sequence[Sequence[Tuple[Any, Any]]],
        splits: Optional[Sequence[InputSplit]] = None,
    ) -> List[List[Tuple[Any, List[Any]]]]:
        """Partition and group all map output (the driver-side shuffle).

        Returns, per reducer partition, a key-sorted list of
        ``(key, [values...])`` groups. ``splits``, when given, are the
        splits behind ``map_outputs`` (same order), whose declared
        partitions :meth:`partition_pairs` enforces.
        """
        partitions: List[List[Tuple[Any, Any]]] = [[] for _ in range(self.num_reducers)]
        for i, task_output in enumerate(map_outputs):
            split = splits[i] if splits is not None else None
            runs = self.partition_pairs(task_output, split=split)
            for run, partition in zip(runs, partitions):
                partition.extend(run)
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
