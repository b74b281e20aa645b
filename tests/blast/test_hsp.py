"""Tests for the seed/HSP/alignment data model."""

import numpy as np
import pytest

from repro.blast.hsp import (
    OP_DIAG,
    OP_QGAP,
    OP_SGAP,
    Alignment,
    SeedHits,
    path_composition,
)
from repro.sequence.alphabet import encode
from tests.conftest import score_path


class TestSeedHits:
    def test_diagonals(self):
        hits = SeedHits(np.array([0, 5]), np.array([3, 5]), k=11)
        assert hits.diagonals.tolist() == [3, 0]

    def test_take(self):
        hits = SeedHits(np.array([0, 5, 9]), np.array([3, 5, 9]), k=4)
        sub = hits.take(np.array([True, False, True]))
        assert sub.q_pos.tolist() == [0, 9]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeedHits(np.array([0, 1]), np.array([0]), k=3)


def _aln(**kw):
    base = dict(
        query_id="q", subject_id="s", q_start=0, q_end=4, s_start=0, s_end=4,
        score=4, evalue=1e-5, bits=10.0,
    )
    base.update(kw)
    return Alignment(**base)


class TestAlignment:
    def test_intervals_and_spans(self):
        a = _aln(q_start=2, q_end=10, s_start=3, s_end=11)
        assert (a.q_start, a.q_end) == (2, 10)
        assert a.q_span == 8

    def test_path_consumption_validated(self):
        with pytest.raises(ValueError, match="path consumes"):
            _aln(path=np.array([OP_DIAG, OP_DIAG], dtype=np.uint8))

    def test_valid_path_accepted(self):
        a = _aln(path=np.array([OP_DIAG] * 4, dtype=np.uint8))
        assert a.length == 4

    def test_shifted(self):
        a = _aln().shifted(q_offset=100, s_offset=10)
        assert (a.q_start, a.q_end) == (100, 104)
        assert (a.s_start, a.s_end) == (10, 14)

    def test_identity(self):
        a = _aln(matches=3, mismatches=1, path=np.array([OP_DIAG] * 4, dtype=np.uint8))
        assert a.identity == 0.75

    def test_invalid_strand_rejected(self):
        with pytest.raises(ValueError):
            _aln(strand=2)

    def test_sort_key_ordering(self):
        good = _aln(evalue=1e-10, score=50)
        bad = _aln(evalue=1e-2, score=10)
        assert good.sort_key() < bad.sort_key()


class TestPathComposition:
    def test_counts(self):
        q = encode("ACGTAC")
        s = encode("AGGTC")
        #   A  C->G mismatch, G, T, then gap in subject (consume A of q), C
        path = np.array(
            [OP_DIAG, OP_DIAG, OP_DIAG, OP_DIAG, OP_SGAP, OP_DIAG], dtype=np.uint8
        )
        matches, mismatches, opens, gap_cols = path_composition(path, q, s, 0, 0)
        assert matches == 4
        assert mismatches == 1
        assert opens == 1
        assert gap_cols == 1

    def test_empty(self):
        assert path_composition(np.zeros(0, dtype=np.uint8), encode("A"), encode("A"), 0, 0) == (0, 0, 0, 0)

    def test_adjacent_gap_runs_counted_separately_by_kind(self):
        q = encode("AC")
        s = encode("AG")
        path = np.array([OP_DIAG, OP_QGAP, OP_SGAP], dtype=np.uint8)
        # composition treats contiguous non-diag as one run for 'opens'?
        # Two different kinds back-to-back: path_composition counts runs of
        # any gap; score_path charges two opens. Verify both behaviours.
        _, _, opens, gap_cols = path_composition(path, q, s, 0, 0)
        assert gap_cols == 2
        assert opens == 1  # contiguous gap block
        score = score_path(path, q, s, 0, 0, 1, -3, 5, 2)
        assert score == 1 - (5 + 2) - (5 + 2)  # two affine gaps


class TestScorePath:
    def test_pure_matches(self):
        q = encode("ACGT")
        path = np.array([OP_DIAG] * 4, dtype=np.uint8)
        assert score_path(path, q, q, 0, 0, 1, -3, 5, 2) == 4

    def test_gap_costs(self):
        q = encode("AACC")
        s = encode("AAGCC")
        path = np.array([OP_DIAG, OP_DIAG, OP_QGAP, OP_DIAG, OP_DIAG], dtype=np.uint8)
        assert score_path(path, q, s, 0, 0, 1, -3, 5, 2) == 4 - 7

    def test_empty(self):
        assert score_path(np.zeros(0, dtype=np.uint8), encode("A"), encode("A"), 0, 0, 1, -3, 5, 2) == 0
