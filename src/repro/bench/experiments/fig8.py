"""Fig. 8 + Table III — Orion vs mpiBLAST: execution time and load balance.

Paper setup: 16 human contigs/scaffolds of 1–71 Mbp against Drosophila,
64–1024 cores, both systems at their tuned shard/fragment configuration.
Results: Orion ≈12.3× faster on average (log-scale Fig. 8), 23× on the
longest query; Table III shows mpiBLAST's task-time CV 0.58 vs Orion's 0.24
at 256 cores.

Ours: the same set under the scale map (1–71 kbp modelling 1–71 Mbp), one
real execution per system, then schedule simulation at every core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.datasets import FIG8_LENGTHS, DatasetSpec, drosophila_like, human_query_set
from repro.bench.recorder import ExperimentReport
from repro.bench.shapes import geometric_mean_ratio
from repro.cluster.metrics import coefficient_of_variation
from repro.cluster.tasks import simulated_seconds
from repro.cluster.topology import ClusterSpec
from repro.core.orion import OrionSearch
from repro.core.results import orion_phases, replay_orion
from repro.mpiblast.runner import MpiBlastRunner, replay_mpiblast
from repro.util.textio import render_series, render_table

DEFAULT_CORE_COUNTS = (64, 128, 256, 512, 1024)
FIG8_SHARDS = 64
FIG8_FRAGMENT = 1600  # ours; models the paper's 1.6 Mbp sweet spot (Fig. 11)


@dataclass
class Fig8Result:
    core_counts: List[int]
    orion_makespans: List[float]
    mpi_makespans: List[float]
    mean_speedup: float
    longest_query_speedup: float
    table3: Dict[str, float]
    report: ExperimentReport = field(repr=False, default=None)
    report_table3: ExperimentReport = field(repr=False, default=None)


def run_fig8(
    dataset: Optional[DatasetSpec] = None,
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    lengths: Optional[List[int]] = None,
    seed: int = 808,
) -> Fig8Result:
    dataset = dataset or drosophila_like()
    lengths = lengths or list(FIG8_LENGTHS)
    queries = human_query_set(dataset, lengths, seed=seed)
    hardware = dataset.hardware

    # --- Orion: one real run per query (fine-grained work units) ---------
    orion = OrionSearch(
        database=dataset.database,
        num_shards=FIG8_SHARDS,
        fragment_length=FIG8_FRAGMENT,
    )
    orion_results = [orion.run(q) for q in queries]

    # --- mpiBLAST: whole-query work units, same shards, same models ------
    mpi_run = MpiBlastRunner(hardware=hardware).run(
        queries, dataset.database, FIG8_SHARDS
    )

    orion_spans: List[float] = []
    mpi_spans: List[float] = []
    for cores in core_counts:
        cluster = ClusterSpec(nodes=cores // 16, cores_per_node=16)
        orion_spans.append(replay_orion(orion_results, cluster, hardware).makespan)
        mpi_spans.append(replay_mpiblast(mpi_run.records, cluster, hardware)[0])

    mean_speedup = geometric_mean_ratio(mpi_spans, orion_spans)

    # Longest query in isolation (the paper's 23× observation).
    longest_idx = int(np.argmax(lengths))
    iso_cluster = ClusterSpec(nodes=16, cores_per_node=16)
    orion_long = replay_orion([orion_results[longest_idx]], iso_cluster, hardware).makespan
    long_records = [
        r for r in mpi_run.records if r.unit.query_id == queries[longest_idx].seq_id
    ]
    mpi_long = replay_mpiblast(long_records, iso_cluster, hardware)[0]
    longest_speedup = mpi_long / orion_long

    # --- Table III: per-task durations at 256 cores ----------------------
    mpi_durations = np.array(simulated_seconds(mpi_run.records, hardware))
    orion_durations = np.array(
        [t.duration for phase in orion_phases(orion_results, hardware) for t in phase]
    )
    table3 = {
        "mpiblast_mean_s": float(mpi_durations.mean()),
        "mpiblast_std_s": float(mpi_durations.std()),
        "mpiblast_cv": coefficient_of_variation(mpi_durations),
        "orion_mean_s": float(orion_durations.mean()),
        "orion_std_s": float(orion_durations.std()),
        "orion_cv": coefficient_of_variation(orion_durations),
    }

    fig_table = render_series(
        "cores",
        ["Orion (sim s)", "mpiBLAST (sim s)", "speedup"],
        list(core_counts),
        [
            [round(t, 1) for t in orion_spans],
            [round(t, 1) for t in mpi_spans],
            [round(m / o, 1) for m, o in zip(mpi_spans, orion_spans)],
        ],
        title="Fig. 8 — execution time, 16 queries of 1-71 (paper Mbp)",
    )
    report = ExperimentReport(
        experiment_id="fig8",
        title="Orion vs mpiBLAST execution time",
        table_text=fig_table,
        metrics={
            "mean_speedup": round(mean_speedup, 1),
            "longest_query_speedup": round(longest_speedup, 1),
            "paper_mean_speedup": 12.3,
            "paper_longest_speedup": 23.0,
        },
    )
    t3_table = render_table(
        ["Metric", "mpiBLAST", "Orion"],
        [
            ["Average (s)", round(table3["mpiblast_mean_s"], 2), round(table3["orion_mean_s"], 2)],
            ["Standard Deviation (s)", round(table3["mpiblast_std_s"], 2), round(table3["orion_std_s"], 2)],
            ["Coefficient of Variation", round(table3["mpiblast_cv"], 2), round(table3["orion_cv"], 2)],
        ],
        title="Table III — task duration statistics (paper: 315.78/182.18/0.58 vs 2.10/0.25/0.24)",
    )
    report_t3 = ExperimentReport(
        experiment_id="table3",
        title="Load balance: per-task duration CV",
        table_text=t3_table,
        metrics={k: round(v, 3) for k, v in table3.items()},
    )
    return Fig8Result(
        core_counts=list(core_counts),
        orion_makespans=orion_spans,
        mpi_makespans=mpi_spans,
        mean_speedup=mean_speedup,
        longest_query_speedup=longest_speedup,
        table3=table3,
        report=report,
        report_table3=report_t3,
    )
