"""Fig. 11 — sensitivity of Orion to fragment length.

Paper setup: a 14.5 Mbp query over Drosophila; execution time as a function
of fragment length shows a U with its sweet spot at 1.6 Mbp — short
fragments pay scheduling/aggregation overhead, long fragments lose
parallelism and BLAST cache behaviour degrades.

Ours: a 14.5 kbp query (scale map), fragment sweep spanning 0.4–14.5 kbp
(paper 0.4–14.5 Mbp), makespan at 256 simulated cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.datasets import DatasetSpec, drosophila_like, human_query
from repro.bench.recorder import ExperimentReport
from repro.bench.shapes import u_shape_minimum
from repro.cluster.topology import ClusterSpec
from repro.core.orion import OrionSearch
from repro.core.results import replay_orion
from repro.util.textio import render_series

FIG11_QUERY_LENGTH = 14_500  # ours == paper 14.5 Mbp
FIG11_SWEEP = (400, 800, 1600, 3200, 7200, 14_500)
FIG11_CLUSTER = ClusterSpec(nodes=16, cores_per_node=16)  # 256 cores
FIG11_SHARDS = 64


@dataclass
class Fig11Result:
    fragment_lengths: List[int]
    paper_fragment_mbp: List[float]
    makespans: List[float]
    work_units: List[int]
    sweet_spot: int
    sweet_spot_interior: bool
    report: ExperimentReport = field(repr=False, default=None)


def run_fig11(
    dataset: Optional[DatasetSpec] = None,
    sweep: Sequence[int] = FIG11_SWEEP,
    seed: int = 1111,
) -> Fig11Result:
    dataset = dataset or drosophila_like()
    query, _ = human_query(dataset, FIG11_QUERY_LENGTH, seed)
    hardware = dataset.hardware
    orion = OrionSearch(database=dataset.database, num_shards=FIG11_SHARDS)

    raw = [orion.run(query, fragment_length=f) for f in sweep]
    makespans = [replay_orion([res], FIG11_CLUSTER, hardware).makespan for res in raw]
    units = [res.num_work_units for res in raw]

    sweet, interior = u_shape_minimum(list(sweep), makespans)
    paper_mbp = [f * hardware.query_scale / 1e6 for f in sweep]
    table = render_series(
        "fragment (paper Mbp)",
        ["time (sim s)", "work units"],
        [f"{m:.2g}" for m in paper_mbp],
        [[round(m, 1) for m in makespans], units],
        title="Fig. 11 — fragment-length sensitivity, 14.5 (paper Mbp) query, 256 cores",
    )
    report = ExperimentReport(
        experiment_id="fig11",
        title="Sensitivity of Orion to fragment length",
        table_text=table,
        metrics={
            "sweet_spot_paper_mbp": sweet * hardware.query_scale / 1e6,
            "paper_sweet_spot_mbp": 1.6,
            "interior_minimum": interior,
        },
        notes=["paper: ideal fragment length 1.6 Mbp for a 14.5 Mbp query"],
    )
    return Fig11Result(
        fragment_lengths=list(sweep),
        paper_fragment_mbp=paper_mbp,
        makespans=makespans,
        work_units=units,
        sweet_spot=int(sweet),
        sweet_spot_interior=interior,
        report=report,
    )
