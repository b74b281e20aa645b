"""Reproduction of *Orion: Scaling Genomic Sequence Matching with
Fine-Grained Parallelization* (Mahadik et al., SC 2014).

Public API layout:

* :mod:`repro.sequence` — sequences, FASTA, synthetic genome generation;
* :mod:`repro.blast` — the from-scratch BLAST engine and statistics;
* :mod:`repro.mapreduce` — the Hadoop-like MapReduce substrate;
* :mod:`repro.cluster` — discrete-event cluster simulation and metrics;
* :mod:`repro.mpiblast` / :mod:`repro.blastplus` — the paper's baselines;
* :mod:`repro.core` — Orion itself (fragmentation, speculative extension,
  aggregation, calibration);
* :mod:`repro.bench` — experiment harness regenerating the paper's tables
  and figures.

Quickstart::

    from repro.sequence import make_database, make_query_with_homologies, HomologySpec
    from repro.core import OrionSearch

    db = make_database(seed=1, num_sequences=50, mean_length=20_000)
    query, truth = make_query_with_homologies(
        seed=2, length=200_000, database=db,
        homologies=[HomologySpec(length=800)] * 4,
    )
    result = OrionSearch(database=db).run(query)
    for aln in result.alignments[:5]:
        print(aln.subject_id, aln.q_start, aln.q_end, aln.evalue)
"""

__version__ = "1.0.0"
