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
from repro.util.validation import check_positive

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
        enforce_memory: bool = True,
        queries_per_segment: int = 1,
    ) -> MpiBlastResult:
        """Search every query against every shard; merge; record.

        ``queries_per_segment`` batches queries into segments (mpiBLAST's
        query segmentation - Fig. 1's coarsest granularity): one work unit
        searches a whole segment against one shard, and its query span is
        the segment's combined length (the lookup table covers the whole
        segment). Larger segments mean fewer, coarser units - the
        load-balance ablation knob.
        """
        if not queries:
            raise ValueError("query set must be non-empty")
        check_positive("queries_per_segment", queries_per_segment)
        ids = [q.seq_id for q in queries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate query ids in query set")
        if enforce_memory:
            for q in queries:
                self.check_memory(q, database)

        shards = shard_database(database, num_shards)
        segments = [
            list(queries[i : i + queries_per_segment])
            for i in range(0, len(queries), queries_per_segment)
        ]
        records: List[WorkUnitRecord] = []
        merged: Dict[str, List[Alignment]] = {q.seq_id: [] for q in queries}
        for seg_idx, segment in enumerate(segments):
            spaces = {
                q.seq_id: self.engine.search_space(
                    len(q), database.total_length, database.num_sequences
                )
                for q in segment
            }
            seg_span = sum(len(q) for q in segment)
            seg_id = (
                segment[0].seq_id
                if len(segment) == 1
                else f"segment{seg_idx:03d}[{len(segment)}q]"
            )
            for shard in shards:
                measured = 0.0
                n_alignments = 0
                for query in segment:
                    res = self.engine.search(
                        query, shard.database, stats_space=spaces[query.seq_id]
                    )
                    merged[query.seq_id].extend(res.alignments)
                    n_alignments += len(res.alignments)
                    measured += res.counters.elapsed_seconds
                records.append(
                    WorkUnitRecord(
                        unit=WorkUnit(
                            query_id=seg_id,
                            shard_index=shard.index,
                            query_span=seg_span,
                            subject_span=shard.total_length,
                        ),
                        measured_seconds=measured,
                        alignments=n_alignments,
                    )
                )
        for qid in merged:
            merged[qid].sort(key=Alignment.sort_key)

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
