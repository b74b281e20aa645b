"""Fig. 10 — Orion vs BLAST+ on a single node.

Paper setup: Homo sapiens sequences over Drosophila, one node; BLAST+ with
16 threads, Orion with 16 map/reduce slots. Result: BLAST+ wins below
~10 Mbp (Hadoop's constant setup exceeds the whole runtime), Orion wins
beyond, and the gap grows with query length because Orion exploits
intra-database *and* intra-query parallelism while BLAST+ serialises its
query chunks.

Ours: the same sweep under the scale map. BLAST+ chunks are 2 kbp (2 Mbp in
paper units — a fixed, non-adaptive split that sits *above* the cache knee,
whereas Orion's calibrated 1.6 Mbp fragments sit at its edge; that gap plus
per-chunk barriers is what Orion's finer grain exploits. See EXPERIMENTS.md
for the crossover's sensitivity to this choice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bench.datasets import FIG10_LENGTHS, DatasetSpec, drosophila_like, human_query
from repro.bench.recorder import ExperimentReport
from repro.bench.shapes import crossover_point
from repro.blastplus.runner import BlastPlusRunner, replay_blastplus
from repro.cluster.topology import ClusterSpec
from repro.core.orion import OrionSearch
from repro.core.results import replay_orion
from repro.util.textio import render_series

FIG10_THREADS = 16
FIG10_FRAGMENT = 1600
#: BLAST+'s fixed (non-adaptive) chunk: 2 kbp ours == 2 Mbp paper, sitting
#: above the cache knee — Orion's calibrated 1.6 Mbp fragments pay less.
BLASTPLUS_CHUNK = 2000
BLASTPLUS_OVERLAP = 100


@dataclass
class Fig10Result:
    lengths: List[int]
    paper_lengths_mbp: List[float]
    orion_times: List[float]
    blastplus_times: List[float]
    crossover_paper_mbp: Optional[float]
    gap_at_longest: float  # blast+ / orion at the longest query
    report: ExperimentReport = field(repr=False, default=None)


def run_fig10(
    dataset: Optional[DatasetSpec] = None,
    lengths: Optional[List[int]] = None,
    seed: int = 1010,
) -> Fig10Result:
    dataset = dataset or drosophila_like()
    lengths = lengths or list(FIG10_LENGTHS)
    node = ClusterSpec(nodes=1, cores_per_node=FIG10_THREADS)
    hardware = dataset.hardware

    orion = OrionSearch(
        database=dataset.database,
        num_shards=FIG10_THREADS,
        fragment_length=FIG10_FRAGMENT,
    )

    orion_times = []
    queries = []
    for i, length in enumerate(lengths):
        q, _ = human_query(dataset, length, seed + i)
        queries.append(q)
        orion_times.append(replay_orion([orion.run(q)], node, hardware).makespan)

    bp_runner = BlastPlusRunner(chunk_size=BLASTPLUS_CHUNK, chunk_overlap=BLASTPLUS_OVERLAP)
    blastplus_times = [
        replay_blastplus(
            bp_runner.run(q, dataset.database, threads=FIG10_THREADS).records,
            node,
            hardware,
        ).makespan
        for q in queries
    ]

    paper_mbp = [l * hardware.query_scale / 1e6 for l in lengths]
    cross = crossover_point(paper_mbp, blastplus_times, orion_times)
    gap = blastplus_times[-1] / orion_times[-1]

    table = render_series(
        "query (paper Mbp)",
        ["BLAST+ (sim s)", "Orion (sim s)"],
        [f"{m:.3g}" for m in paper_mbp],
        [
            [round(t, 1) for t in blastplus_times],
            [round(t, 1) for t in orion_times],
        ],
        title="Fig. 10 — BLAST+ vs Orion on one node (16 threads / 16 slots)",
    )
    report = ExperimentReport(
        experiment_id="fig10",
        title="Orion vs BLAST+ single node",
        table_text=table,
        metrics={
            "crossover_paper_mbp": round(cross, 1) if cross else None,
            "paper_crossover_mbp": 10.0,
            "blastplus_over_orion_at_longest": round(gap, 2),
        },
        notes=[
            "paper: BLAST+ faster for small queries (Hadoop setup overhead), "
            "Orion faster beyond ~10 Mbp with a growing gap",
        ],
    )
    return Fig10Result(
        lengths=lengths,
        paper_lengths_mbp=paper_mbp,
        orion_times=orion_times,
        blastplus_times=blastplus_times,
        crossover_paper_mbp=cross,
        gap_at_longest=gap,
        report=report,
    )
