#!/usr/bin/env python3
"""Quickstart: search a long query with Orion and read the results.

Builds a small synthetic reference database, plants a few homologous
regions into a 200 kbp query (so there is ground truth to find), runs the
fine-grained Orion search, and prints the alignments in classic BLAST
tabular format — then double-checks the result against serial BLAST.

Run:  python examples/quickstart.py
"""

from repro.blast import BlastEngine, format_tabular
from repro.cluster import ClusterSpec, HardwareModel
from repro.core import OrionSearch, replay_orion
from repro.sequence import HomologySpec, make_database, make_query_with_homologies


def main() -> None:
    # A reference database: 50 sequences, ~1 Mbp total.
    database = make_database(seed=1, num_sequences=50, mean_length=20_000, name="refdb")
    print(f"database: {database.num_sequences} sequences, {database.total_length:,} bp")

    # A 200 kbp query with four planted homologous regions (the ground truth).
    query, truth = make_query_with_homologies(
        seed=2,
        length=200_000,
        database=database,
        homologies=[HomologySpec(length=800)] * 4,
    )
    print(f"query: {query.seq_id}, {len(query):,} bp, {len(truth)} planted homologies")
    for t in truth:
        print(f"  planted: query{t.query_interval} ~ {t.subject_id}{t.subject_interval}")

    # Orion: fragment the query, shard the database, search, aggregate.
    orion = OrionSearch(database=database, num_shards=8, fragment_length=25_000)
    result = orion.run(query)
    # Replay the measured work units on a modelled 64-core Hadoop cluster.
    schedule = replay_orion([result], ClusterSpec(nodes=4, cores_per_node=16), HardwareModel())

    print(
        f"\nOrion: {result.num_fragments} fragments x {result.num_shards} shards = "
        f"{result.num_work_units} work units, overlap L = {result.overlap} bp "
        f"(Eq. 1), simulated makespan {schedule.makespan:.1f}s"
    )
    print(f"\ntop alignments ({len(result.alignments)} total):")
    print(format_tabular(result.alignments[:8]))

    # The paper's accuracy claim: Orion == serial BLAST, exactly.
    serial = BlastEngine().search(query, database)
    same = {(a.subject_id, a.q_start, a.q_end, a.score) for a in result.alignments} == {
        (a.subject_id, a.q_start, a.q_end, a.score) for a in serial.alignments
    }
    print(f"\nmatches serial BLAST exactly: {same}")


if __name__ == "__main__":
    main()
