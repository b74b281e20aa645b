"""BLAST+ runner: serial chunk loop, threads scan database slices.

Execution model (matching the real tool's structure): chunks of the split
query are processed *one at a time*; within a chunk, the database is divided
across ``threads`` slices that are searched concurrently (a barrier closes
each chunk). This gives BLAST+ intra-query cache relief and single-node
thread parallelism — but chunk barriers idle threads at every chunk tail,
and one node is the ceiling, which is what Fig. 10 shows against Orion.

The runner measures every (chunk × slice) unit; :func:`replay_blastplus`
replays the records on one node, one barrier-separated phase per chunk,
with durations from a :class:`~repro.cluster.hardware.HardwareModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Sequence

from repro.blast.engine import BlastEngine
from repro.blast.hsp import Alignment
from repro.blast.params import BlastParams
from repro.blastplus.splitter import merge_chunk_alignments, split_query
from repro.cluster.hardware import HardwareModel
from repro.cluster.simulator import Schedule, simulate_phases
from repro.cluster.tasks import unit_tasks
from repro.cluster.topology import ClusterSpec, ExecutionProfile
from repro.mpiblast.formatdb import shard_database
from repro.sequence.records import Database, SequenceRecord
from repro.units import WorkUnit, WorkUnitRecord
from repro.util.validation import check_positive


#: Default chunk size (real bp). The real tool splits nucleotide queries
#: into ~1 Mbp chunks; scaled experiments override this.
DEFAULT_CHUNK_SIZE = 1_000_000
#: Default chunk overlap (real bp).
DEFAULT_OVERLAP = 1000


@dataclass
class BlastPlusResult:
    """Merged alignments plus the measured (chunk × slice) records."""

    alignments: List[Alignment]
    records: List[WorkUnitRecord]
    num_chunks: int
    threads: int


class BlastPlusRunner:
    """Single-node BLAST+ with query splitting and multithreading.

    ``chunk_size``/``chunk_overlap`` control query splitting.
    """

    def __init__(
        self,
        params: Optional[BlastParams] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        chunk_overlap: int = DEFAULT_OVERLAP,
    ) -> None:
        check_positive("chunk_size", chunk_size)
        self.engine = BlastEngine(params)
        self.chunk_size = int(chunk_size)
        self.chunk_overlap = int(chunk_overlap)

    def run(
        self,
        query: SequenceRecord,
        database: Database,
        threads: int = 16,
    ) -> BlastPlusResult:
        """Search one (possibly long) query on one node with ``threads``."""
        check_positive("threads", threads)
        chunks = split_query(query, self.chunk_size, self.chunk_overlap)
        slices = shard_database(database, threads)
        space = self.engine.search_space(
            len(query), database.total_length, database.num_sequences
        )

        records: List[WorkUnitRecord] = []
        per_chunk: List = []
        for chunk in chunks:
            chunk_alns: List[Alignment] = []
            for sl in slices:
                res = self.engine.search(chunk.record, sl.database, stats_space=space)
                unit = WorkUnit(
                    query_id=query.seq_id,
                    shard_index=sl.index,
                    fragment_index=chunk.index,
                    query_span=chunk.length,
                    subject_span=sl.total_length,
                )
                records.append(
                    WorkUnitRecord(
                        unit=unit,
                        measured_seconds=res.counters.elapsed_seconds,
                        alignments=len(res.alignments),
                    )
                )
                chunk_alns.extend(res.alignments)
            per_chunk.append((chunk, chunk_alns))

        merged = merge_chunk_alignments(per_chunk, query.seq_id)
        return BlastPlusResult(
            alignments=merged,
            records=records,
            num_chunks=len(chunks),
            threads=threads,
        )


def replay_blastplus(
    records: Sequence[WorkUnitRecord], cluster: ClusterSpec, hardware: HardwareModel
) -> Schedule:
    """Replay measured BLAST+ units on ``cluster`` (one node, one slot per thread).

    Consecutive records of one chunk form one phase; a barrier closes each
    chunk, and the multithread profile's small overheads apply.
    """
    phases = [
        unit_tasks(list(chunk), hardware)
        for _, chunk in groupby(records, key=lambda r: r.unit.fragment_index)
    ]
    return simulate_phases(phases, cluster, ExecutionProfile.multithread())
