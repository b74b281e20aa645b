"""The four fixed workloads, their seeded inputs and the common configuration.

Every input is generated in the benchmark process from ``--seed``; the
program under test receives only the generated database and queries. The
names are fixed: later issues cite them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.hsp import Alignment
from repro.core.orion import OrionSearch
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.mutate import MutationModel
from repro.sequence.records import Database, SequenceRecord
from repro.sketch import DEFAULT_PRUNE_THRESHOLD
from repro.util.rng import RngStream

#: Worker processes of every process-backed search (the box has 2 cores).
WORKERS = 2
#: Timed queries whose alignments are compared with the serial oracle; the
#: traced run uses the same ones.
ORACLE_QUERIES = 10
#: Untimed queries before timing starts (fills worker caches).
WARMUP_QUERIES = 2
#: Cold construct → warmup → close cycles behind ``setup_s``.
SETUP_CYCLES = 5
#: ``service_closed``: concurrent closed-loop clients == ``max_inflight``.
SERVICE_CLIENTS = 2
SERVICE_QUEUE_DEPTH = 16
#: ``service_closed`` phase B: fixed open-loop arrival rate (queries/s).
OPEN_LOOP_RATE = 8.0
#: Alignments at or below this E-value must survive pruning.
SIGNIFICANT_EVALUE = 1e-10

_CLOSE = MutationModel.close_homolog()
_DISTANT = MutationModel.distant_homolog()


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs, and why it exists."""

    name: str
    why: str
    db_sequences: int
    db_mean_length: int
    #: Coefficient of variation of subject lengths. A dozen subjects get 0:
    #: with ``make_database``'s default 0.5 their total size, and with it
    #: set-up and seeding time, swings by 6-14 % from seed to seed.
    db_length_cv: float
    num_shards: int
    query_length: int
    fragment_length: int
    homologies: Tuple[Tuple[int, MutationModel], ...]
    prune_threshold: Optional[float] = None
    service: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="long_query",
            why="Intra-query parallelism on one long query: gapped DP and "
            "reduce-side aggregation dominate, runtime overhead is small.",
            db_sequences=8,
            db_mean_length=50_000,
            db_length_cv=0.0,
            num_shards=8,
            query_length=29_900,
            fragment_length=7_500,
            homologies=((800, _CLOSE),) * 4 + ((800, _DISTANT),),
        ),
        Workload(
            name="short_subjects",
            why="Many short subjects: the per-subject Python loop (seeding, "
            "ungapped extension, engine self time) is ~94% of task compute, gapped DP ~6%.",
            db_sequences=500,
            db_mean_length=500,
            db_length_cv=0.5,
            num_shards=4,
            query_length=8_000,
            fragment_length=2_700,
            homologies=((200, _CLOSE),),
        ),
        Workload(
            name="sparse_pruned",
            why="Sketch pruning drops ~97% of (fragment x shard) tasks: prepare(), its "
            "probes and the dispatch of a few small tasks weigh most; lowest parallel efficiency.",
            db_sequences=160,
            db_mean_length=1_000,
            db_length_cv=0.1,
            num_shards=16,
            query_length=24_000,
            fragment_length=2_000,
            homologies=((500, _CLOSE),) * 4,
            prune_threshold=DEFAULT_PRUNE_THRESHOLD,
        ),
        Workload(
            name="service_closed",
            why="Inter-query parallelism through OrionService on one shared pool: "
            "admission, hand-off, job shipping and assemble() rival engine compute.",
            db_sequences=12,
            db_mean_length=8_000,
            db_length_cv=0.0,
            num_shards=4,
            query_length=29_900,
            fragment_length=6_000,
            homologies=((400, _CLOSE),) * 3,
            service=True,
        ),
    )
}


class Inputs:
    """The seeded database and query stream of one workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._stream = RngStream(seed, name=workload.name)
        self.database: Database = make_database(
            self._stream.child("database"),
            num_sequences=workload.db_sequences,
            mean_length=workload.db_mean_length,
            name=f"ledger_{workload.name}",
            length_cv=workload.db_length_cv,
        )
        self._homologies = [
            HomologySpec(length=length, model=model)
            for length, model in workload.homologies
        ]

    def query(self, role: str, index: int) -> SequenceRecord:
        """Query ``index`` of stream ``role`` — distinct for every pair.

        No query is ever replayed within a run: ``WorkerPool._publish_job``
        caches jobs by the SHA-256 of the job pickle, so a repeated query
        would hide job shipping.
        """
        seq_id = f"{role}{index:05d}"
        query, _ = make_query_with_homologies(
            self._stream.child(f"query/{seq_id}"),
            length=self.workload.query_length,
            database=self.database,
            homologies=self._homologies,
            seq_id=seq_id,
        )
        return query

    def rng(self, salt: str) -> np.random.Generator:
        """A seeded generator for load shapes (arrival times)."""
        return self._stream.child(salt).generator

    def digest(self, queries: int = 3) -> str:
        """SHA-256 over the database and the first timed queries."""
        h = hashlib.sha256()
        for rec in self.database:
            h.update(rec.seq_id.encode())
            h.update(rec.codes.tobytes())
        for i in range(queries):
            h.update(self.query("timed", i).codes.tobytes())
        return h.hexdigest()


def build_search(
    workload: Workload,
    database: Database,
    executor: str,
    prune: bool = True,
) -> OrionSearch:
    """The common configuration: everything not named here is a default."""
    return OrionSearch(
        database,
        num_shards=workload.num_shards,
        fragment_length=workload.fragment_length,
        executor=executor,
        num_workers=WORKERS,
        shuffle="streaming",
        prune_threshold=workload.prune_threshold if prune else None,
    )


def significant(alignments: Sequence[Alignment]) -> List[Alignment]:
    return [aln for aln in alignments if aln.evalue <= SIGNIFICANT_EVALUE]


def canonical(alignments: Sequence[Alignment]) -> List[tuple]:
    """Alignments as comparable tuples: every field, traceback bytes included."""
    out = []
    for aln in alignments:
        fields = dict(vars(aln))
        path = fields.pop("path")
        fields["path"] = None if path is None else path.tobytes()
        out.append(tuple(sorted(fields.items())))
    return out
