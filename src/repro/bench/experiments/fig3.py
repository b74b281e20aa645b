"""Fig. 3 — mpiBLAST behaviour for long sequences.

Paper setup: human queries 3 kbp–99 Mbp against Drosophila, 4 nodes ×
16 cores, 64 database shards. Result: execution time is flat below ~1 Mbp
and "worsens rapidly beyond this threshold".

Ours: the same sweep under the scale map (0.125–99 kbp, modelling
0.125–99 Mbp), real searches, simulated scheduling with the cache model
driving the published superlinear blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bench.datasets import FIG3_LENGTHS, DatasetSpec, drosophila_like, human_query
from repro.bench.recorder import ExperimentReport
from repro.cluster.topology import ClusterSpec
from repro.mpiblast.runner import MpiBlastRunner, replay_mpiblast
from repro.util.textio import render_series

#: Paper configuration: 4 Gordon nodes (64 cores), 64 shards.
FIG3_CLUSTER = ClusterSpec.gordon(4)
FIG3_SHARDS = 64


@dataclass
class Fig3Result:
    lengths: List[int]  # our bp
    paper_lengths_mbp: List[float]
    makespans: List[float]
    flat_region_ratio: float  # max/min over sub-knee points
    blowup_ratio: float  # t(longest) / t(knee)
    superlinearity: float  # blowup vs pure-length growth
    report: ExperimentReport = field(repr=False, default=None)


def run_fig3(
    dataset: Optional[DatasetSpec] = None,
    lengths: Optional[List[int]] = None,
    seed: int = 303,
) -> Fig3Result:
    """Regenerate the Fig. 3 curve."""
    dataset = dataset or drosophila_like()
    lengths = lengths or list(FIG3_LENGTHS)
    hardware = dataset.hardware
    knee_ours = hardware.cache.threshold / hardware.query_scale  # e.g. 1000 bp

    runner = MpiBlastRunner()  # no memory ceiling: Fig. 3 sweeps past it deliberately
    makespans = []
    for i, length in enumerate(lengths):
        query, _ = human_query(dataset, length, seed + i)
        res = runner.run([query], dataset.database, FIG3_SHARDS)
        makespans.append(replay_mpiblast(res.records, FIG3_CLUSTER, hardware)[0])

    flat = [m for l, m in zip(lengths, makespans) if l <= knee_ours]
    beyond = [(l, m) for l, m in zip(lengths, makespans) if l > knee_ours]
    flat_ratio = max(flat) / min(flat) if len(flat) >= 2 else 1.0
    knee_time = flat[-1] if flat else makespans[0]
    blowup = beyond[-1][1] / knee_time if beyond else 1.0
    length_growth = (beyond[-1][0] / knee_ours) if beyond else 1.0
    superlinearity = blowup / length_growth if length_growth else 1.0

    paper_mbp = [l * hardware.query_scale / 1e6 for l in lengths]
    table = render_series(
        "query (paper Mbp)",
        ["mpiBLAST time (sim s)"],
        [f"{m:.3g}" for m in paper_mbp],
        [[round(m, 1) for m in makespans]],
        title="Fig. 3 — mpiBLAST execution time vs query length (64 cores, 64 shards)",
    )
    report = ExperimentReport(
        experiment_id="fig3",
        title="mpiBLAST behaviour for long sequences",
        table_text=table,
        metrics={
            "flat_region_max_over_min": round(flat_ratio, 2),
            "blowup_vs_knee": round(blowup, 1),
            "superlinearity_factor": round(superlinearity, 1),
        },
        notes=[
            "paper: good below 1 Mbp, worsens rapidly beyond (Section II-C)",
        ],
    )
    return Fig3Result(
        lengths=lengths,
        paper_lengths_mbp=paper_mbp,
        makespans=makespans,
        flat_region_ratio=flat_ratio,
        blowup_ratio=blowup,
        superlinearity=superlinearity,
        report=report,
    )
