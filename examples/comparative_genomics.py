#!/usr/bin/env python3
"""Comparative genomics: long human contigs against a Drosophila-like DB.

The paper's motivating workload (Section V-B): align long genomic scaffolds
of human chromosomes against the Drosophila genome to find conserved
elements. This example runs the scaled stand-in workload with all three
systems — serial BLAST, mpiBLAST and Orion — verifies they report identical
alignments, and compares their simulated execution on a 256-core cluster.

Run:  python examples/comparative_genomics.py
"""

from repro.bench.datasets import drosophila_like, human_query
from repro.blast import BlastEngine
from repro.cluster import ClusterSpec
from repro.core import OrionSearch, replay_orion
from repro.mpiblast import MpiBlastRunner, replay_mpiblast
from repro.util.textio import render_table


def keyset(alignments):
    return sorted(
        (a.subject_id, a.q_start, a.q_end, a.s_start, a.s_end, a.score)
        for a in alignments
    )


def main() -> None:
    dataset = drosophila_like()
    cluster = ClusterSpec(nodes=16, cores_per_node=16)  # 256 cores
    # A 40 kbp contig modelling a 40 Mbp human scaffold (scale map: 1 kbp ~ 1 Mbp).
    query, truth = human_query(dataset, length=40_000, seed=11)
    print(dataset.description)
    print(f"query {query.seq_id}: {len(query):,} bp (models 40 Mbp), "
          f"{len(truth)} conserved elements planted\n")

    serial = BlastEngine().search(query, dataset.database)

    mpi = MpiBlastRunner(hardware=dataset.hardware).run(
        [query], dataset.database, num_shards=64
    )
    mpi_seconds = replay_mpiblast(mpi.records, cluster, dataset.hardware)[0]

    orion = OrionSearch(
        database=dataset.database,
        num_shards=64,
        fragment_length=1600,  # the calibrated 1.6 Mbp sweet spot (Fig. 11)
    )
    res = orion.run(query)
    orion_seconds = replay_orion([res], cluster, dataset.hardware).makespan

    exact_mpi = keyset(mpi.alignments[query.seq_id]) == keyset(serial.alignments)
    exact_orion = keyset(res.alignments) == keyset(serial.alignments)

    print(
        render_table(
            ["system", "work units", "simulated time (s)", "alignments", "== serial"],
            [
                ["serial BLAST", 1, "-", len(serial.alignments), True],
                ["mpiBLAST (64 shards)", len(mpi.records),
                 round(mpi_seconds, 1), len(mpi.alignments[query.seq_id]), exact_mpi],
                [f"Orion ({res.num_fragments} frags x 64 shards)", res.num_work_units,
                 round(orion_seconds, 1), len(res.alignments), exact_orion],
            ],
            title="human-vs-Drosophila comparative genomics, 256 cores",
        )
    )
    print(f"\nOrion speedup over mpiBLAST: "
          f"{mpi_seconds / orion_seconds:.1f}x")

    recovered = sum(
        1
        for t in truth
        if any(
            a.subject_id == t.subject_id
            and a.q_start < t.query_interval[1]
            and a.q_end > t.query_interval[0]
            for a in res.alignments
        )
    )
    print(f"conserved elements recovered: {recovered}/{len(truth)}")


if __name__ == "__main__":
    main()
