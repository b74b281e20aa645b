"""Tabular alignment formatting (the "parsed BLAST output" of Section IV-B).

The paper's map tasks emit parsed BLAST reports — subject id, offsets,
E-value, match/mismatch/gap counts — onto shared storage for the reduce
phase. :func:`format_tabular` emits the classic 12-column ``-outfmt 6``
layout (qseqid sseqid pident length mismatch gapopen qstart qend sstart
send evalue bitscore; 1-based inclusive coordinates at this boundary
only), so results travel as plain text the way the paper's
Hadoop-streaming implementation staged them.
"""

from __future__ import annotations

from typing import Iterable

from repro.blast.hsp import Alignment, MINUS_STRAND

def format_tabular_row(aln: Alignment) -> str:
    """One alignment as a 12-column tab-separated row.

    Coordinates convert to 1-based inclusive. Minus-strand alignments follow
    the BLAST convention of swapping the subject endpoints (sstart > send).
    """
    pident = 100.0 * aln.identity
    qstart, qend = aln.q_start + 1, aln.q_end
    sstart, send = aln.s_start + 1, aln.s_end
    if aln.strand == MINUS_STRAND:
        sstart, send = send, sstart
    fields = [
        aln.query_id,
        aln.subject_id,
        f"{pident:.2f}",
        str(aln.length),
        str(aln.mismatches),
        str(aln.gap_opens),
        str(qstart),
        str(qend),
        str(sstart),
        str(send),
        f"{aln.evalue:.2e}",
        f"{aln.bits:.1f}",
    ]
    return "\t".join(fields)


def format_tabular(alignments: Iterable[Alignment]) -> str:
    """Render alignments as tabular text (one row per alignment)."""
    return "\n".join(format_tabular_row(a) for a in alignments)
