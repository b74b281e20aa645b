"""Fig. 9 — Orion scalability (speedup over the 64-core baseline).

Paper setup: 32 sequences of 1–99 Mbp ("well beyond the usable range of
mpiBLAST") over Drosophila, 64→1024 cores. Result: near-constant parallel
efficiency, ≈5× speedup at 1024 cores relative to 64.

Ours: 32 queries of 1–99 kbp (scale map), one real Orion execution, the
speedup curve from schedule simulation at each core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.datasets import FIG9_LENGTHS, DatasetSpec, drosophila_like, human_query_set
from repro.bench.recorder import ExperimentReport
from repro.cluster.metrics import speedup_curve
from repro.cluster.topology import ClusterSpec
from repro.core.orion import OrionSearch
from repro.core.results import replay_orion
from repro.util.textio import render_series

DEFAULT_CORE_COUNTS = (64, 128, 256, 512, 1024)
FIG9_SHARDS = 16
FIG9_FRAGMENT = 3200


@dataclass
class Fig9Result:
    core_counts: List[int]
    makespans: List[float]
    speedups: List[float]
    efficiencies: List[float]
    speedup_at_max: float
    num_work_units: int
    report: ExperimentReport = field(repr=False, default=None)


def run_fig9(
    dataset: Optional[DatasetSpec] = None,
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    lengths: Optional[List[int]] = None,
    seed: int = 909,
) -> Fig9Result:
    dataset = dataset or drosophila_like()
    lengths = lengths or list(FIG9_LENGTHS)
    queries = human_query_set(dataset, lengths, seed=seed)

    orion = OrionSearch(
        database=dataset.database,
        num_shards=FIG9_SHARDS,
        fragment_length=FIG9_FRAGMENT,
    )
    results = [orion.run(q) for q in queries]
    units = sum(r.num_work_units for r in results)

    makespans = []
    for cores in core_counts:
        cluster = ClusterSpec(nodes=cores // 16, cores_per_node=16)
        makespans.append(replay_orion(results, cluster, dataset.hardware).makespan)
    rows = speedup_curve(list(core_counts), makespans)
    speedups = [r[1] for r in rows]
    efficiencies = [r[2] for r in rows]

    table = render_series(
        "cores",
        ["time (sim s)", "speedup", "efficiency"],
        list(core_counts),
        [
            [round(m, 1) for m in makespans],
            [round(s, 2) for s in speedups],
            [round(e, 2) for e in efficiencies],
        ],
        title="Fig. 9 — Orion speedup, 32 queries of 1-99 (paper Mbp)",
    )
    report = ExperimentReport(
        experiment_id="fig9",
        title="Orion scalability 64-1024 cores",
        table_text=table,
        metrics={
            "speedup_at_1024_vs_64": round(speedups[-1], 2),
            "paper_speedup_at_1024": 5.0,
            "work_units": units,
        },
        notes=["paper: nearly constant parallel efficiency (slope ~constant)"],
    )
    return Fig9Result(
        core_counts=list(core_counts),
        makespans=makespans,
        speedups=speedups,
        efficiencies=efficiencies,
        speedup_at_max=speedups[-1],
        num_work_units=units,
        report=report,
    )
