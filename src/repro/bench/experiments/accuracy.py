"""Section V-C — the 100% accuracy claim, as a reportable experiment.

"Orion did not miss any alignments reported by mpiBLAST, which is the same
as alignments reported by BLAST. Thus the accuracy of Orion remained at
100% for all the query sequences."

This experiment runs the full equality chain on a planted-ground-truth
workload at several fragment lengths and reports the per-configuration
accuracy (matched / serial alignments) and ground-truth recall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bench.datasets import DatasetSpec, drosophila_like, human_query
from repro.bench.recorder import ExperimentReport
from repro.blast.engine import BlastEngine
from repro.core.orion import OrionSearch
from repro.mpiblast.runner import MpiBlastRunner
from repro.util.textio import render_table

ACCURACY_QUERY_LENGTH = 50_000
ACCURACY_FRAGMENTS = (4_000, 9_000, 20_000)


def _keys(alignments):
    return sorted(
        (a.subject_id, a.strand, a.q_start, a.q_end, a.s_start, a.s_end, a.score)
        for a in alignments
    )


@dataclass
class AccuracyResult:
    serial_count: int
    mpiblast_accuracy: float
    orion_accuracies: List[float]  # per fragment length
    ground_truth_recall: float
    all_exact: bool
    report: ExperimentReport = field(repr=False, default=None)


def run_accuracy(
    dataset: Optional[DatasetSpec] = None, seed: int = 4242
) -> AccuracyResult:
    dataset = dataset or drosophila_like()
    query, truth = human_query(dataset, ACCURACY_QUERY_LENGTH, seed)
    engine = BlastEngine()
    serial = engine.search(query, dataset.database)
    serial_keys = _keys(serial.alignments)

    def accuracy(alignments) -> float:
        got = _keys(alignments)
        if not serial_keys:
            return 1.0 if not got else 0.0
        matched = sum(1 for k in serial_keys if k in got)
        exact = 1.0 if got == serial_keys else matched / len(serial_keys)
        return exact

    mpi = MpiBlastRunner().run([query], dataset.database, num_shards=16)
    mpi_acc = accuracy(mpi.alignments[query.seq_id])

    rows = [["serial BLAST", "-", len(serial.alignments), 1.0]]
    rows.append(["mpiBLAST", "16 shards", len(mpi.alignments[query.seq_id]), mpi_acc])
    orion_accs = []
    for frag in ACCURACY_FRAGMENTS:
        orion = OrionSearch(
            database=dataset.database, num_shards=16, fragment_length=frag
        )
        res = orion.run(query)
        acc = accuracy(res.alignments)
        orion_accs.append(acc)
        rows.append([f"Orion F={frag}", f"{res.num_fragments} fragments", len(res.alignments), acc])

    # ground-truth recall: every planted homology intersected by some
    # serial alignment must also be intersected by Orion's (they are equal,
    # so compute against serial for reporting).
    recalled = 0
    for t in truth:
        qs, qe = t.query_interval
        if any(
            a.subject_id == t.subject_id and a.q_start < qe and a.q_end > qs
            for a in serial.alignments
        ):
            recalled += 1
    recall = recalled / len(truth) if truth else 1.0

    all_exact = mpi_acc == 1.0 and all(a == 1.0 for a in orion_accs)
    table = render_table(
        ["system", "configuration", "alignments", "accuracy vs serial"],
        rows,
        title="Section V-C — accuracy (paper: 100% for all query sequences)",
    )
    report = ExperimentReport(
        experiment_id="accuracy",
        title="Orion reports exactly serial BLAST's alignments",
        table_text=table,
        metrics={
            "all_exact": all_exact,
            "ground_truth_recall": round(recall, 3),
        },
    )
    return AccuracyResult(
        serial_count=len(serial.alignments),
        mpiblast_accuracy=mpi_acc,
        orion_accuracies=orion_accs,
        ground_truth_recall=recall,
        all_exact=all_exact,
        report=report,
    )
