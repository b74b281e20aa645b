"""Parallel sample-sort of the final alignments (paper Section IV-D).

Orion "samples the score data for a rough approximation of the distribution
… different ranges of values are assigned to different reducers to sort in
parallel. Finally the merge is done in parallel, since the range … for each
reducer task is known." That is a textbook sample-sort, implemented here on
the MapReduce substrate: sample sort keys, pick quantile splitters, range-
partition, let each reducer sort its disjoint range, and concatenate —
already globally ordered.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.blast.hsp import Alignment
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import make_range_partitioner
from repro.mapreduce.runtime import Executor, one_shot_executor
from repro.mapreduce.types import InputSplit
from repro.util.rng import derive_rng

#: Sample size per requested partition (classic sample-sort oversampling).
OVERSAMPLE = 8


def choose_splitters(
    keys: Sequence[Tuple], num_partitions: int, seed=0
) -> List[Tuple]:
    """Pick at most ``num_partitions − 1`` distinct splitter keys by sampling.

    Oversamples ``OVERSAMPLE`` keys per partition, sorts the sample, and
    takes evenly spaced quantiles — the "rough approximation of the
    distribution" the paper describes. Skewed score distributions can put
    the same key at several quantiles; duplicates are removed (a duplicated
    splitter would bound an empty key range, i.e. a reducer that can never
    receive data), so callers must size the partition count from the
    returned list (``len(splitters) + 1``).
    """
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    if num_partitions == 1 or len(keys) == 0:
        return []
    rng = derive_rng(seed, "sample-sort")
    sample_size = min(len(keys), num_partitions * OVERSAMPLE)
    idx = rng.choice(len(keys), size=sample_size, replace=False)
    sample = sorted(keys[i] for i in idx)
    splitters: List[Tuple] = []
    for p in range(1, num_partitions):
        candidate = sample[p * len(sample) // num_partitions]
        if not splitters or candidate != splitters[-1]:
            splitters.append(candidate)
    return splitters


def _sort_mapper(split: InputSplit):
    """Key each alignment chunk entry by its report sort key (picklable)."""
    for aln in split.payload:
        yield aln.sort_key(), aln


def _sort_reducer(key, values):
    # Keys arrive sorted within the partition (sort-based shuffle);
    # values at equal keys keep arrival order.
    yield from values


def parallel_sort_alignments(
    alignments: Sequence[Alignment],
    num_tasks: int = 4,
    seed=0,
    executor: Union[str, Executor, None] = None,
) -> Tuple[List[Alignment], List[float]]:
    """Sample-sort alignments into report order (ascending E-value).

    Returns the globally sorted list plus the per-reduce-task measured
    durations (simulation inputs). Result equals ``sorted(alignments,
    key=Alignment.sort_key)`` — property-tested, for every executor backend
    (``executor`` defaults to serial, whose durations feed the simulator).
    On heavily skewed key distributions fewer than ``num_tasks`` reduce
    tasks may run (splitters are deduplicated; see :func:`choose_splitters`).
    A worker pool built here from the name ``"processes"`` is shut down
    before returning; an executor *instance* is left running.
    """
    alignments = list(alignments)
    if not alignments:
        return [], []
    num_tasks = max(1, min(num_tasks, len(alignments)))
    keys = [a.sort_key() for a in alignments]
    splitters = choose_splitters(keys, num_tasks, seed=seed)
    num_tasks = len(splitters) + 1
    partitioner = make_range_partitioner(splitters)

    job = MapReduceJob(
        mapper=_sort_mapper,
        reducer=_sort_reducer,
        num_reducers=num_tasks,
        partitioner=partitioner,
        name="result-sort",
    )
    # One split per map task; chunk the input to mirror map-side parallelism.
    chunk = -(-len(alignments) // num_tasks)
    splits = [
        InputSplit(index=i, payload=alignments[j : j + chunk])
        for i, j in enumerate(range(0, len(alignments), chunk))
    ]
    with one_shot_executor(executor) as runner:
        result = runner.run(job, splits)
    ordered = result.flat_outputs()
    durations = [r.duration for r in result.reduce_records()]
    return ordered, durations
