"""Tests for tabular formatting (the parsed-output contract of Section IV-B)."""

import numpy as np
import pytest

from repro.blast.formatter import format_tabular, format_tabular_row
from repro.blast.hsp import MINUS_STRAND, Alignment
from tests.conftest import TABULAR_COLUMNS, parse_tabular


def _aln(**kw):
    base = dict(
        query_id="q1", subject_id="s1", q_start=9, q_end=29, s_start=99, s_end=119,
        score=20, evalue=1.5e-8, bits=40.2, matches=18, mismatches=2,
        gap_opens=0, gap_columns=0,
    )
    base.update(kw)
    return Alignment(**base)


class TestFormat:
    def test_column_count(self):
        row = format_tabular_row(_aln())
        assert len(row.split("\t")) == len(TABULAR_COLUMNS)

    def test_one_based_inclusive_coordinates(self):
        fields = format_tabular_row(_aln()).split("\t")
        assert fields[6] == "10"  # qstart: 9 -> 10
        assert fields[7] == "29"  # qend stays (half-open -> inclusive)
        assert fields[8] == "100"
        assert fields[9] == "119"

    def test_minus_strand_swaps_subject(self):
        fields = format_tabular_row(_aln(strand=MINUS_STRAND)).split("\t")
        assert int(fields[8]) > int(fields[9])

    def test_multiple_rows(self):
        text = format_tabular([_aln(), _aln(q_start=50, q_end=70)])
        assert len(text.splitlines()) == 2


class TestParse:
    def test_round_trip(self):
        a = _aln()
        rows = parse_tabular(format_tabular([a]))
        assert len(rows) == 1
        row = rows[0]
        assert row["qseqid"] == "q1"
        assert row["sseqid"] == "s1"
        assert row["qstart"] == 10
        assert row["send"] == 119
        assert row["mismatch"] == 2
        assert row["evalue"] == pytest.approx(1.5e-8)

    def test_pident_from_identity(self):
        from repro.blast.hsp import OP_DIAG

        a = _aln(path=np.array([OP_DIAG] * 20, dtype=np.uint8))
        row = parse_tabular(format_tabular_row(a))[0]
        assert row["pident"] == pytest.approx(90.0)  # 18/20
        assert row["length"] == 20
