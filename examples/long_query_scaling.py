#!/usr/bin/env python3
"""Scaling a single long-query search from 64 to 1024 cores (Fig. 9 style).

Runs one Orion search (real work, measured durations), then replays the
same work units on clusters of increasing size — the search itself never
re-runs; only the schedule simulation does. Shows why fine-grained units
keep parallel efficiency nearly constant.

Run:  python examples/long_query_scaling.py
"""

from repro.bench.datasets import drosophila_like, human_query
from repro.cluster import ClusterSpec, simulated_seconds, speedup_curve
from repro.core import OrionSearch, replay_orion
from repro.util.textio import render_table


def main() -> None:
    dataset = drosophila_like()
    query, _ = human_query(dataset, length=60_000, seed=21)  # models 60 Mbp
    orion = OrionSearch(
        database=dataset.database,
        num_shards=64,
        fragment_length=1600,
    )
    print(f"searching {len(query):,} bp (models 60 Mbp) ...")
    result = orion.run(query)
    print(
        f"{result.num_fragments} fragments x {result.num_shards} shards = "
        f"{result.num_work_units} work units; "
        f"total simulated work "
        f"{sum(simulated_seconds(result.map_records, dataset.hardware)):,.0f}s\n"
    )

    core_counts = [64, 128, 256, 512, 1024]
    makespans = [
        replay_orion(
            [result], ClusterSpec(nodes=c // 16, cores_per_node=16), dataset.hardware
        ).makespan
        for c in core_counts
    ]
    rows = speedup_curve(core_counts, makespans)
    print(
        render_table(
            ["cores", "simulated time (s)", "speedup", "efficiency"],
            [
                [c, round(m, 1), round(s, 2), round(e, 2)]
                for (c, s, e), m in zip(rows, makespans)
            ],
            title="Orion scaling, single 60 Mbp-equivalent query",
        )
    )


if __name__ == "__main__":
    main()
