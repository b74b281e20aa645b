"""An in-process MapReduce framework (the Hadoop substrate, paper Section IV).

Orion's search is "a natural fit for MapReduce": map tasks run BLAST on
(query-fragment, database-shard) pairs; the shuffle keys alignments by
database sequence id; reduce tasks aggregate and sort. This package provides
that framework for real: input splits, mappers, combiners, partitioners, a
sorted shuffle, reducers, pluggable executors that *measure* per-task
durations (consumed later by :mod:`repro.cluster`'s simulator), and a
shared-memory database plane that workers attach to instead of copying.
"""

from repro.mapreduce.types import InputSplit, JobResult, TaskKind, TaskRecord
from repro.mapreduce.partitioner import hash_partitioner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import (
    EXECUTOR_KINDS,
    Executor,
    SerialExecutor,
    WorkerPool,
    resolve_executor,
)
from repro.mapreduce.shm import (
    HAVE_SHARED_MEMORY,
    PlaneCorruptError,
    PlaneLease,
    PlaneRegistry,
    PlaneStatus,
    SharedDatabaseHandle,
    SharedDatabaseView,
    attach_cached_view,
    attach_view,
    list_planes,
    reap_orphan_planes,
)

__all__ = [
    "InputSplit",
    "JobResult",
    "TaskKind",
    "TaskRecord",
    "hash_partitioner",
    "MapReduceJob",
    "EXECUTOR_KINDS",
    "Executor",
    "SerialExecutor",
    "WorkerPool",
    "resolve_executor",
    "HAVE_SHARED_MEMORY",
    "PlaneCorruptError",
    "PlaneLease",
    "PlaneRegistry",
    "PlaneStatus",
    "SharedDatabaseHandle",
    "SharedDatabaseView",
    "attach_cached_view",
    "attach_view",
    "list_planes",
    "reap_orphan_planes",
]
