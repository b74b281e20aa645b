"""Orion result types: fragment-level alignments and the final result.

Map tasks emit :class:`FragmentAlignment` — an alignment already translated
to **global query coordinates**, still carrying its fragment provenance and
partial flags. The reduce phase consumes them; :class:`OrionResult` is what
:class:`repro.core.orion.OrionSearch` hands back to callers, and
:func:`replay_orion` replays results on a modelled Hadoop cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.blast.hsp import Alignment
from repro.cluster.hardware import HardwareModel
from repro.cluster.simulator import Schedule, simulate_phases
from repro.cluster.tasks import SimTask, unit_tasks
from repro.cluster.topology import ClusterSpec, ExecutionProfile
from repro.mapreduce.types import TaskKind
from repro.units import WorkUnitRecord

#: How many sort reducers replay splits each query's measured sort into, as
#: the paper's sample-sort job (Section IV-D) ranges the report over several
#: reduce tasks. Each pays Hadoop's per-task overhead in replay.
SORT_TASKS = 4


@dataclass(frozen=True)
class FragmentAlignment:
    """One map-task alignment with fragment provenance.

    Attributes
    ----------
    alignment:
        The alignment in global query coordinates (``query_id`` is the
        original query's id, not the fragment's).
    fragment_index:
        Which fragment found it.
    partial_left / partial_right:
        True when the alignment reaches into the boundary margin of the
        fragment's interior left/right edge — a candidate for merging with a
        neighbour's partial (paper Section III-B).
    """

    alignment: Alignment
    fragment_index: int
    partial_left: bool = False
    partial_right: bool = False

    def __post_init__(self) -> None:
        if self.fragment_index < 0:
            raise ValueError(f"fragment_index must be >= 0, got {self.fragment_index}")

    @property
    def is_partial(self) -> bool:
        return self.partial_left or self.partial_right


@dataclass
class OrionResult:
    """Output of one Orion search.

    ``alignments`` is the final, globally sorted report (ascending E-value),
    exactly what serial BLAST would print. Timing fields are measured
    seconds only (``sort_seconds`` times the one in-process sort of the
    report); :func:`replay_orion` turns them into a simulated schedule on
    any cluster under any hardware model.
    """

    query_id: str
    alignments: List[Alignment]
    map_records: List[WorkUnitRecord]
    reduce_seconds: List[float]
    sort_seconds: float
    fragment_length: int
    overlap: int
    num_fragments: int
    num_shards: int
    merged_pairs: int = 0
    dropped_partials: int = 0
    #: Which executor backend ran the MapReduce phases.
    executor_kind: str = "serial"
    #: Whether every map and reduce duration is a serial measurement;
    #: :func:`replay_orion` refuses a result where it is not.
    simulator_safe: bool = True
    #: Real wall-clock of the map+shuffle+reduce job on this machine —
    #: the number the executor benchmark tracks (parallel backends should
    #: shrink it while leaving ``alignments`` bit-identical).
    mapreduce_wall_seconds: float = 0.0
    #: Sketch-based shard pruning accounting (see :mod:`repro.sketch`):
    #: shards that received at least one map task vs. shards every fragment
    #: skipped, and the (fragment × shard) map tasks pruned away. With
    #: pruning off: ``shards_searched == num_shards`` and the others are 0.
    shards_searched: int = 0
    shards_pruned: int = 0
    pruned_map_tasks: int = 0
    #: Shared-plane lifecycle accounting (see ``repro.mapreduce.shm``):
    #: whether this search's process published the machine-wide plane,
    #: attached to one another process published, or fell back to the
    #: in-process database path (``plane_fallback_reason`` says why —
    #: corruption, slot exhaustion, shm unavailable). One of the three is 1
    #: for a process-backed search; all 0 for in-process executors.
    plane_created: int = 0
    plane_attached: int = 0
    plane_fallback: int = 0
    plane_fallback_reason: Optional[str] = None

    def __len__(self) -> int:
        return len(self.alignments)

    @property
    def num_work_units(self) -> int:
        return len(self.map_records)

    def total_measured_seconds(self) -> float:
        """Total real compute across all phases (work, not makespan)."""
        return (
            sum(r.measured_seconds for r in self.map_records)
            + sum(self.reduce_seconds)
            + self.sort_seconds
        )


def orion_phases(
    results: Sequence[OrionResult], hardware: HardwareModel
) -> List[List[SimTask]]:
    """The map, reduce and sort phases of a query set as one Hadoop job.

    Map durations come from ``hardware``; reduce durations are replayed as
    measured (they are not (query × shard) work units). Each query's
    measured sort becomes ``min(SORT_TASKS, len(alignments))`` equal sort
    reducers, and an empty report sorts nothing.
    """
    for res in results:
        if not res.simulator_safe:
            raise ValueError(
                f"query {res.query_id!r} ran on executor {res.executor_kind!r} "
                f"under contention; replay only serial results"
            )
    maps = unit_tasks([r for res in results for r in res.map_records], hardware)
    reduces = [
        SimTask(task_id=f"{res.query_id}/reduce/{i:03d}", duration=d, kind=TaskKind.REDUCE)
        for res in results
        for i, d in enumerate(res.reduce_seconds)
    ]
    sorts: List[SimTask] = []
    for res in results:
        n = min(SORT_TASKS, len(res.alignments))
        sorts.extend(
            SimTask(
                task_id=f"{res.query_id}/sort/{i:03d}",
                duration=res.sort_seconds / n,
                kind=TaskKind.REDUCE,
            )
            for i in range(n)
        )
    return [maps, reduces, sorts]


def replay_orion(
    results: Sequence[OrionResult], cluster: ClusterSpec, hardware: HardwareModel
) -> Schedule:
    """Replay measured Orion results on ``cluster`` with Hadoop's overheads.

    All queries' work units form one job (the paper's Fig. 8 setup); pass a
    one-member list to replay a single query.
    """
    return simulate_phases(
        orion_phases(results, hardware), cluster, ExecutionProfile.hadoop()
    )
