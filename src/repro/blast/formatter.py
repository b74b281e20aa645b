"""Tabular alignment formatting (the "parsed BLAST output" of Section IV-B).

The paper's map tasks emit parsed BLAST reports — subject id, offsets,
E-value, match/mismatch/gap counts — onto shared storage for the reduce
phase. :func:`format_tabular` emits the classic 12-column ``-outfmt 6``
layout (1-based inclusive coordinates at this boundary only);
:func:`parse_tabular` reads it back, so results round-trip as plain text
the way the paper's Hadoop-streaming implementation staged them.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.blast.hsp import Alignment, MINUS_STRAND

#: Column names of the classic BLAST tabular format.
TABULAR_COLUMNS = (
    "qseqid", "sseqid", "pident", "length", "mismatch", "gapopen",
    "qstart", "qend", "sstart", "send", "evalue", "bitscore",
)


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


def parse_tabular(text: str) -> List[dict]:
    """Parse tabular text back into column dictionaries.

    Numeric columns are converted; coordinates stay in the 1-based inclusive
    convention of the format (callers needing half-open coordinates subtract
    one from the starts). Raises on malformed rows.
    """
    rows: List[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != len(TABULAR_COLUMNS):
            raise ValueError(
                f"line {lineno}: expected {len(TABULAR_COLUMNS)} columns, got {len(parts)}"
            )
        row = dict(zip(TABULAR_COLUMNS, parts))
        row["pident"] = float(row["pident"])
        row["length"] = int(row["length"])
        row["mismatch"] = int(row["mismatch"])
        row["gapopen"] = int(row["gapopen"])
        for key in ("qstart", "qend", "sstart", "send"):
            row[key] = int(row[key])
        row["evalue"] = float(row["evalue"])
        row["bitscore"] = float(row["bitscore"])
        rows.append(row)
    return rows
