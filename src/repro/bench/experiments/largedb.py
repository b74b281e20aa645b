"""Section V-H — results on larger databases (mouse, NT).

Paper observations:

* mouse (2.77 GB): query NG_007092 (2311 kbp) — mpiBLAST 2664 s vs Orion
  201 s (≈13×);
* NT (56.5 GB): query NT_077570 (263 kbp) — mpiBLAST 5271.8 s vs Orion
  ≈900 s (≈5.9×), with Orion at the per-query calibrated fragment sweet spot.

The two cases exercise *different* mechanisms: the mouse query is above the
cache knee (Orion's fragments dodge the degradation), while the NT query is
*below* it — there the win is purely finer work-unit granularity over an
enormous database. The scale map preserves both regimes (see
:func:`repro.bench.datasets.nt_like`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.bench.datasets import human_query, mouse_like, nt_like
from repro.bench.recorder import ExperimentReport
from repro.cluster.topology import ClusterSpec
from repro.core.orion import OrionSearch
from repro.core.results import replay_orion
from repro.mpiblast.runner import MpiBlastRunner, replay_mpiblast
from repro.util.textio import render_table

LARGEDB_CLUSTER = ClusterSpec(nodes=16, cores_per_node=16)  # 256 cores

#: (dataset factory, our query bp, orion fragment bp, shards, paper factor)
CASES = (
    ("mouse", mouse_like, 2311, 700, 40, 13.3),
    ("nt", nt_like, 2630, 250, 64, 5.9),
)


@dataclass
class CaseResult:
    name: str
    query_length: int
    mpi_seconds: float
    orion_seconds: float
    factor: float
    paper_factor: float


@dataclass
class LargeDbResult:
    cases: List[CaseResult]
    report: ExperimentReport = field(repr=False, default=None)

    def factor(self, name: str) -> float:
        return next(c.factor for c in self.cases if c.name == name)


def run_largedb(seed: int = 77) -> LargeDbResult:
    cases: List[CaseResult] = []
    rows = []
    for name, factory, qlen, fragment, shards, paper_factor in CASES:
        dataset = factory()
        query, _ = human_query(dataset, qlen, seed, seq_id=f"{name}.query")

        hardware = dataset.hardware
        orion = OrionSearch(
            database=dataset.database, num_shards=shards, fragment_length=fragment
        )
        orion_sec = replay_orion([orion.run(query)], LARGEDB_CLUSTER, hardware).makespan

        mpi_run = MpiBlastRunner().run([query], dataset.database, shards)
        mpi_sec = replay_mpiblast(mpi_run.records, LARGEDB_CLUSTER, hardware)[0]

        factor = mpi_sec / orion_sec
        cases.append(
            CaseResult(
                name=name, query_length=qlen, mpi_seconds=mpi_sec,
                orion_seconds=orion_sec, factor=factor, paper_factor=paper_factor,
            )
        )
        rows.append(
            [
                name,
                f"{qlen * hardware.query_scale / 1000:.0f} kbp",
                round(mpi_sec, 1),
                round(orion_sec, 1),
                round(factor, 1),
                paper_factor,
            ]
        )

    table = render_table(
        ["database", "query (paper)", "mpiBLAST (sim s)", "Orion (sim s)", "factor", "paper factor"],
        rows,
        title="Section V-H — larger databases (256 cores)",
    )
    report = ExperimentReport(
        experiment_id="largedb",
        title="Results on larger databases",
        table_text=table,
        metrics={f"{c.name}_factor": round(c.factor, 2) for c in cases},
    )
    return LargeDbResult(cases=cases, report=report)
