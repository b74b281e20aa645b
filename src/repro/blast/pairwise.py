"""Pairwise alignment rendering — BLAST's classic human-readable report.

Renders an :class:`~repro.blast.hsp.Alignment` (with its path) the way
``blastall`` prints hits::

    Query  121711  ACGTACGT-ACGT  121723
                   |||| |||  |||
    Sbjct    5124  ACGTCCGTAACGT    5136

Coordinates are 1-based inclusive in the printed lines (the format's
convention); internals stay 0-based half-open.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.blast.hsp import MINUS_STRAND, OP_DIAG, OP_QGAP, Alignment
from repro.sequence.alphabet import decode

#: Residues per printed block (NCBI default).
LINE_WIDTH = 60
GAP_CHAR = "-"


def alignment_rows(
    aln: Alignment, q_codes: np.ndarray, s_codes: np.ndarray
) -> tuple:
    """The three text rows of the aligned region (query, match, subject)."""
    if aln.path is None:
        raise ValueError("pairwise rendering requires an alignment path")
    q_chars: List[str] = []
    s_chars: List[str] = []
    match: List[str] = []
    qi, si = aln.q_start, aln.s_start
    for op in aln.path:
        if op == OP_DIAG:
            qc = decode(q_codes[qi : qi + 1])
            sc = decode(s_codes[si : si + 1])
            q_chars.append(qc)
            s_chars.append(sc)
            match.append("|" if qc == sc and qc != "N" else " ")
            qi += 1
            si += 1
        elif op == OP_QGAP:  # gap in query: subject base only
            q_chars.append(GAP_CHAR)
            s_chars.append(decode(s_codes[si : si + 1]))
            match.append(" ")
            si += 1
        else:  # OP_SGAP: gap in subject
            q_chars.append(decode(q_codes[qi : qi + 1]))
            s_chars.append(GAP_CHAR)
            match.append(" ")
            qi += 1
    return "".join(q_chars), "".join(match), "".join(s_chars)


def format_pairwise(
    aln: Alignment,
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    line_width: int = LINE_WIDTH,
) -> str:
    """Full pairwise block: header statistics plus wrapped alignment rows."""
    if line_width <= 0:
        raise ValueError(f"line_width must be positive, got {line_width}")
    q_row, m_row, s_row = alignment_rows(aln, q_codes, s_codes)
    header = [
        f"> {aln.subject_id}",
        f" Score = {aln.bits:.1f} bits ({aln.score}),  Expect = {aln.evalue:.2g}",
        f" Identities = {aln.matches}/{aln.length} ({100 * aln.identity:.0f}%),"
        f" Gaps = {aln.gap_columns}/{aln.length}"
        f" ({100 * aln.gap_columns / max(1, aln.length):.0f}%)",
        f" Strand = Plus/{'Minus' if aln.strand == MINUS_STRAND else 'Plus'}",
        "",
    ]
    lines = header
    qpos, spos = aln.q_start, aln.s_start
    width = max(len(str(aln.q_end)), len(str(aln.s_end)))
    for off in range(0, len(q_row), line_width):
        q_seg = q_row[off : off + line_width]
        m_seg = m_row[off : off + line_width]
        s_seg = s_row[off : off + line_width]
        q_consumed = sum(1 for c in q_seg if c != GAP_CHAR)
        s_consumed = sum(1 for c in s_seg if c != GAP_CHAR)
        lines.append(f"Query  {qpos + 1:>{width}}  {q_seg}  {qpos + q_consumed}")
        lines.append(f"       {'':>{width}}  {m_seg}")
        lines.append(f"Sbjct  {spos + 1:>{width}}  {s_seg}  {spos + s_consumed}")
        lines.append("")
        qpos += q_consumed
        spos += s_consumed
    return "\n".join(lines).rstrip() + "\n"
