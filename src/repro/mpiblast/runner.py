"""The mpiBLAST baseline runner: execute and merge, then replay the schedule.

Work units are (whole query, shard) pairs — the coarsest decomposition in
Fig. 1's middle level. Each unit runs the shared BLAST engine for real (so
results are exact and durations are measured); :func:`replay_mpiblast` then
replays the measured records on a modelled cluster with mpiBLAST's greedy
master and MPI overheads.

Two modelled hardware effects apply (DESIGN.md §2), both read from one
:class:`~repro.cluster.hardware.HardwareModel`:

* in the replay, the cache model is evaluated at each unit's *whole-query*
  span — mpiBLAST always searches the full query, which is precisely why it
  degrades on long queries;
* in the run, the DP memory model rejects queries whose worst-pair dynamic
  program exceeds node memory, reproducing the paper's >96 Mbp hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.engine import BlastEngine
from repro.blast.hsp import Alignment
from repro.blast.params import BlastParams
from repro.cluster.hardware import HardwareModel
from repro.cluster.tasks import simulated_seconds
from repro.cluster.topology import ClusterSpec, ExecutionProfile
from repro.mpiblast.formatdb import shard_database
from repro.mpiblast.scheduler import MasterScheduler, WorkAssignment, makespan, per_worker_busy
from repro.sequence.records import Database, SequenceRecord
from repro.units import WorkUnit, WorkUnitRecord

#: Ranks reserved for the master (mpiBLAST dedicates one).
MASTER_RANKS = 1


@dataclass
class MpiBlastResult:
    """Everything one mpiBLAST run measures.

    ``alignments`` maps query id → merged, report-sorted alignments; they are
    bitwise what a serial whole-database search reports (sharding is
    lossless — an integration test asserts equality). ``records`` are the
    measured work units :func:`replay_mpiblast` schedules.
    """

    alignments: Dict[str, List[Alignment]]
    records: List[WorkUnitRecord]
    num_shards: int

    def all_alignments(self) -> List[Alignment]:
        """Every query's alignments, flattened in sorted query-id order."""
        return [a for _, alns in sorted(self.alignments.items()) for a in alns]

    @property
    def total_measured_seconds(self) -> float:
        return float(sum(r.measured_seconds for r in self.records))


class MpiBlastRunner:
    """Run a query set mpiBLAST-style against a sharded database.

    Parameters
    ----------
    params:
        BLAST parameters shared with every other runner.
    hardware:
        Read only for its DP memory ceiling (``hardware.memory`` with the
        model's scales); the default has none. Simulated durations come
        from the model passed to :func:`replay_mpiblast`.
    """

    def __init__(
        self,
        params: Optional[BlastParams] = None,
        hardware: HardwareModel = HardwareModel(),
    ) -> None:
        self.engine = BlastEngine(params)
        self.hardware = hardware

    def check_memory(self, query: SequenceRecord, database: Database) -> None:
        """Raise OutOfMemoryError when the modelled DP cannot fit (paper §V-C)."""
        self.hardware.check_memory(len(query), int(database.lengths().max()))

    def run(
        self,
        queries: Sequence[SequenceRecord],
        database: Database,
        num_shards: int,
    ) -> MpiBlastResult:
        """Search every query against every shard; merge; record.

        One work unit searches one whole query against one shard.
        """
        if not queries:
            raise ValueError("query set must be non-empty")
        ids = [q.seq_id for q in queries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate query ids in query set")
        for q in queries:
            self.check_memory(q, database)

        shards = shard_database(database, num_shards)
        records: List[WorkUnitRecord] = []
        merged: Dict[str, List[Alignment]] = {}
        for query in queries:
            space = self.engine.search_space(
                len(query), database.total_length, database.num_sequences
            )
            alignments: List[Alignment] = []
            for shard in shards:
                res = self.engine.search(query, shard.database, stats_space=space)
                alignments.extend(res.alignments)
                records.append(
                    WorkUnitRecord(
                        unit=WorkUnit(
                            query_id=query.seq_id,
                            shard_index=shard.index,
                            query_span=len(query),
                            subject_span=shard.total_length,
                        ),
                        measured_seconds=res.counters.elapsed_seconds,
                        alignments=len(res.alignments),
                    )
                )
            alignments.sort(key=Alignment.sort_key)
            merged[query.seq_id] = alignments

        return MpiBlastResult(alignments=merged, records=records, num_shards=len(shards))


def replay_mpiblast(
    records: Sequence[WorkUnitRecord], cluster: ClusterSpec, hardware: HardwareModel
) -> Tuple[float, np.ndarray, List[WorkAssignment]]:
    """Replay measured mpiBLAST units with its greedy master on ``cluster``.

    Returns ``(makespan_seconds, worker_busy, assignments)``: the master
    ranks sit out, every unit pays MPI's dispatch cost, and the job pays
    ``mpirun`` setup and teardown.
    """
    profile = ExecutionProfile.mpi()
    num_workers = max(1, cluster.total_slots - MASTER_RANKS)
    assignments = MasterScheduler(num_workers=num_workers).schedule(
        records, simulated_seconds(records, hardware)
    )
    span = (
        profile.job_setup_seconds
        + makespan(assignments)
        + len(records) * profile.per_task_overhead_seconds / max(1, num_workers)
        + profile.job_teardown_seconds
    )
    busy = np.array(per_worker_busy(assignments, num_workers), dtype=np.float64)
    return span, busy, assignments
