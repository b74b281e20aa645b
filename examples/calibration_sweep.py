#!/usr/bin/env python3
"""Per-database fragment-length calibration (Section III-D / Fig. 11).

Sweeps candidate fragment lengths for one query/database pairing, replays
each measured search on a simulated 256-core cluster, shows the U-shaped
cost curve, and then reuses the sweet spot the way the paper prescribes
("this kind of calibration can be done once for each database and then used
with the optimal fragment size"): by passing it to later searches
explicitly. Calibration itself keeps no state.

Run:  python examples/calibration_sweep.py
"""

from repro.bench.datasets import drosophila_like, human_query
from repro.cluster import ClusterSpec
from repro.core import OrionSearch, calibrate_fragment_length
from repro.util.textio import render_table


def main() -> None:
    dataset = drosophila_like()
    query, _ = human_query(dataset, length=14_500, seed=31)  # the paper's 14.5 Mbp case
    cluster = ClusterSpec(nodes=16, cores_per_node=16)
    orion = OrionSearch(database=dataset.database, num_shards=64)

    calib = calibrate_fragment_length(
        orion, query, cluster, dataset.hardware,
        fragment_lengths=[400, 800, 1600, 3200, 7200, 14_500],
    )
    print(
        render_table(
            ["fragment (bp)", "models (Mbp)", "work units", "merged pairs", "sim time (s)"],
            [
                [p.fragment_length, p.fragment_length / 1000, p.num_work_units,
                 p.merged_pairs, round(p.makespan_seconds, 1)]
                for p in calib.points
            ],
            title=f"fragment-length sweep, {len(query):,} bp query, 256 cores",
        )
    )
    print(f"\nsweet spot: {calib.best_fragment_length} bp "
          f"(models {calib.best_fragment_length / 1000:.1f} Mbp; paper found 1.6 Mbp)")

    # Reuse the sweet spot for a similarly-sized query on this database.
    other, _ = human_query(dataset, length=13_000, seed=32)
    tuned = orion.run(other, fragment_length=calib.best_fragment_length)
    print(f"13 kbp query on {dataset.database.name} at the sweet spot: "
          f"{tuned.num_fragments} fragments, {len(tuned.alignments)} alignments")


if __name__ == "__main__":
    main()
