"""Tests for the pairwise alignment renderer."""

import numpy as np
import pytest

from repro.blast.hsp import OP_DIAG, OP_QGAP, OP_SGAP, Alignment
from repro.blast.pairwise import alignment_rows, format_pairwise
from repro.sequence.alphabet import encode


def simple_alignment(path, q_start=0, s_start=0, q_span=None, s_span=None, **kw):
    path = np.asarray(path, dtype=np.uint8)
    q_span = int(np.count_nonzero(path != OP_QGAP))
    s_span = int(np.count_nonzero(path != OP_SGAP))
    base = dict(
        query_id="q", subject_id="s", q_start=q_start, q_end=q_start + q_span,
        s_start=s_start, s_end=s_start + s_span, score=10, evalue=1e-9, bits=25.0,
        matches=4, mismatches=1, gap_columns=1, path=path,
    )
    base.update(kw)
    return Alignment(**base)


class TestAlignmentRows:
    def test_matches_and_mismatch(self):
        q = encode("ACGTT")
        s = encode("ACCTT")
        aln = simple_alignment([OP_DIAG] * 5)
        q_row, m_row, s_row = alignment_rows(aln, q, s)
        assert q_row == "ACGTT"
        assert s_row == "ACCTT"
        assert m_row == "|| ||"

    def test_gap_in_subject(self):
        q = encode("ACGT")
        s = encode("ACT")
        aln = simple_alignment([OP_DIAG, OP_DIAG, OP_SGAP, OP_DIAG])
        q_row, m_row, s_row = alignment_rows(aln, q, s)
        assert q_row == "ACGT"
        assert s_row == "AC-T"
        assert m_row == "|| |"

    def test_gap_in_query(self):
        q = encode("ACT")
        s = encode("ACGT")
        aln = simple_alignment([OP_DIAG, OP_DIAG, OP_QGAP, OP_DIAG])
        q_row, _, s_row = alignment_rows(aln, q, s)
        assert q_row == "AC-T"
        assert s_row == "ACGT"

    def test_requires_path(self):
        aln = Alignment(
            query_id="q", subject_id="s", q_start=0, q_end=4, s_start=0, s_end=4,
            score=4, evalue=1e-9, bits=10.0,
        )
        with pytest.raises(ValueError, match="path"):
            alignment_rows(aln, encode("ACGT"), encode("ACGT"))


class TestFormatPairwise:
    def test_header_contents(self):
        q = encode("ACGTT")
        out = format_pairwise(simple_alignment([OP_DIAG] * 5), q, encode("ACCTT"))
        assert "> s" in out
        assert "Score = 25.0 bits (10)" in out
        assert "Expect = 1e-09" in out
        assert "Identities = 4/5" in out

    def test_one_based_coordinates(self):
        q = encode("ACGTT")
        out = format_pairwise(
            simple_alignment([OP_DIAG] * 5, q_start=0, s_start=0), q, encode("ACCTT")
        )
        assert "Query  1  ACGTT  5" in out
        assert "Sbjct  1  ACCTT  5" in out

    def test_wrapping(self):
        n = 150
        q = encode("A" * n)
        aln = simple_alignment([OP_DIAG] * n, matches=n, mismatches=0, gap_columns=0)
        out = format_pairwise(aln, q, q, line_width=60)
        query_lines = [ln for ln in out.splitlines() if ln.startswith("Query")]
        assert len(query_lines) == 3  # 60 + 60 + 30
        assert query_lines[1].split()[1] == "61"  # second block starts at 61

    def test_gap_does_not_advance_coordinate(self):
        q = encode("ACT")
        s = encode("ACGT")
        out = format_pairwise(
            simple_alignment([OP_DIAG, OP_DIAG, OP_QGAP, OP_DIAG]), q, s
        )
        assert "Query  1  AC-T  3" in out
        assert "Sbjct  1  ACGT  4" in out

    def test_bad_width_rejected(self):
        q = encode("AC")
        with pytest.raises(ValueError):
            format_pairwise(simple_alignment([OP_DIAG] * 2), q, q, line_width=0)


class TestFormatReport:
    def test_engine_output_renders(self, engine, small_db, query_with_truth, serial_result):
        query, _ = query_with_truth
        report = "\n".join(
            format_pairwise(aln, query.codes, small_db[aln.subject_id].codes)
            for aln in serial_result.alignments[:3]
        )
        assert report.count("> ") == 3
        assert "Query" in report and "Sbjct" in report

    def test_identity_bars_match_composition(self, engine, small_db, query_with_truth, serial_result):
        """The match row's '|' count equals the alignment's match count."""
        query, _ = query_with_truth
        aln = serial_result.alignments[0]
        _, m_row, _ = alignment_rows(aln, query.codes, small_db[aln.subject_id].codes)
        assert m_row.count("|") == aln.matches
