#!/usr/bin/env python3
"""Load balance: why query fragmentation beats whole-query work units.

Reproduces the paper's Table III argument interactively: a mixed query set
(short and very long queries) creates wildly uneven mpiBLAST work units —
whole query × shard — while Orion's fragments are uniform. Prints both
duration distributions, their coefficients of variation, and per-worker
busy times on a simulated cluster.

Run:  python examples/load_balance_report.py
"""

import numpy as np

from repro.bench.datasets import drosophila_like, human_query_set
from repro.cluster import ClusterSpec, coefficient_of_variation, load_imbalance, simulated_seconds
from repro.core import OrionSearch, replay_orion
from repro.core.results import orion_phases
from repro.mpiblast import MpiBlastRunner, replay_mpiblast
from repro.util.textio import render_table


def histogram_line(durations: np.ndarray, bins: int = 8) -> str:
    counts, edges = np.histogram(durations, bins=bins)
    peak = counts.max() or 1
    bars = "".join("▁▂▃▄▅▆▇█"[min(7, int(7 * c / peak))] for c in counts)
    return f"[{edges[0]:8.2f}s .. {edges[-1]:8.2f}s] {bars}"


def main() -> None:
    dataset = drosophila_like()
    cluster = ClusterSpec(nodes=16, cores_per_node=16)
    # Short and very long queries together: the imbalance-provoking mix.
    queries = human_query_set(dataset, [1_000, 2_000, 5_000, 30_000, 71_000], seed=41)

    hardware = dataset.hardware
    mpi = MpiBlastRunner(hardware=hardware).run(queries, dataset.database, num_shards=64)
    mpi_makespan, mpi_busy, _ = replay_mpiblast(mpi.records, cluster, hardware)

    orion = OrionSearch(database=dataset.database, num_shards=64, fragment_length=1600)
    results = [orion.run(q) for q in queries]
    sched = replay_orion(results, cluster, hardware)

    mpi_durations = np.array(simulated_seconds(mpi.records, hardware))
    orion_durations = np.array(
        [t.duration for phase in orion_phases(results, hardware) for t in phase]
    )

    print("work-unit duration distributions (simulated seconds):")
    print(f"  mpiBLAST {histogram_line(mpi_durations)}")
    print(f"  Orion    {histogram_line(orion_durations)}\n")
    print(
        render_table(
            ["metric", "mpiBLAST", "Orion"],
            [
                ["work units", len(mpi_durations), len(orion_durations)],
                ["mean task (s)", round(float(mpi_durations.mean()), 2),
                 round(float(orion_durations.mean()), 2)],
                ["coefficient of variation",
                 round(coefficient_of_variation(mpi_durations), 2),
                 round(coefficient_of_variation(orion_durations), 2)],
                ["makespan on 256 cores (s)", round(mpi_makespan, 1),
                 round(sched.makespan, 1)],
                ["worker busy-time imbalance (max/mean)",
                 round(load_imbalance(mpi_busy), 2),
                 round(load_imbalance(sched.per_slot_busy() + 1e-9), 2)],
            ],
            title="Table III-style load balance comparison",
        )
    )


if __name__ == "__main__":
    main()
