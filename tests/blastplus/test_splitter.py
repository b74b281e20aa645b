"""Tests for BLAST+ query splitting and chunk merging."""

import numpy as np
import pytest

from repro.blast.hsp import Alignment
from repro.blastplus.splitter import QueryChunk, merge_chunk_alignments, split_query
from repro.sequence.records import SequenceRecord


def q(n=100):
    return SequenceRecord.from_text("q", "ACGT" * (n // 4))


class TestSplitQuery:
    def test_short_query_single_chunk(self):
        chunks = split_query(q(100), chunk_size=200, overlap=10)
        assert len(chunks) == 1
        assert chunks[0].offset == 0
        assert chunks[0].record.seq_id == "q"

    def test_coverage_exact(self):
        query = q(1000)
        chunks = split_query(query, chunk_size=300, overlap=50)
        covered = np.zeros(1000, dtype=bool)
        for c in chunks:
            covered[c.offset : c.offset + c.length] = True
        assert covered.all()

    def test_overlap_exact(self):
        chunks = split_query(q(1000), chunk_size=300, overlap=50)
        for a, b in zip(chunks, chunks[1:]):
            assert b.offset == a.offset + 250

    def test_content_matches_query(self):
        query = q(1000)
        for c in split_query(query, chunk_size=300, overlap=50):
            assert np.array_equal(c.record.codes, query.codes[c.offset : c.offset + c.length])

    def test_final_chunk_clamped(self):
        chunks = split_query(q(1000), chunk_size=300, overlap=50)
        last = chunks[-1]
        assert last.offset + last.length == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            split_query(q(), chunk_size=0, overlap=0)
        with pytest.raises(ValueError):
            split_query(q(), chunk_size=10, overlap=10)


def _aln(qs, qe, ss, se, score, subject="s1"):
    return Alignment(
        query_id="chunk", subject_id=subject, q_start=qs, q_end=qe,
        s_start=ss, s_end=se, score=score, evalue=1e-5, bits=10.0,
    )


class TestMergeChunkAlignments:
    def _chunk(self, index, offset):
        return QueryChunk(index=index, record=SequenceRecord.from_text("c", "ACGT"), offset=offset)

    def test_translation(self):
        merged = merge_chunk_alignments(
            [(self._chunk(0, 100), [_aln(5, 15, 0, 10, 10)])], "query"
        )
        assert (merged[0].q_start, merged[0].q_end) == (105, 115)
        assert merged[0].query_id == "query"

    def test_duplicate_from_overlap_collapses(self):
        # Same global alignment seen by two overlapping chunks
        a = _aln(50, 60, 0, 10, 10)
        b = _aln(0, 10, 0, 10, 10)
        merged = merge_chunk_alignments(
            [(self._chunk(0, 0), [a]), (self._chunk(1, 50), [b])], "q"
        )
        assert len(merged) == 1

    def test_truncated_copy_culled(self):
        """A chunk-edge truncation (contained, lower score) is dropped."""
        full = _aln(10, 60, 0, 50, 50)
        trunc = _aln(0, 20, 30, 50, 18)  # global q: 40..60 inside 10..60
        merged = merge_chunk_alignments(
            [(self._chunk(0, 0), [full]), (self._chunk(1, 40), [trunc])], "q"
        )
        assert len(merged) == 1
        assert merged[0].score == 50

    def test_distinct_subjects_kept(self):
        merged = merge_chunk_alignments(
            [
                (self._chunk(0, 0), [_aln(0, 10, 0, 10, 10, subject="s1")]),
                (self._chunk(1, 50), [_aln(0, 10, 0, 10, 10, subject="s2")]),
            ],
            "q",
        )
        assert len(merged) == 2

    def test_sorted_output(self):
        merged = merge_chunk_alignments(
            [
                (
                    self._chunk(0, 0),
                    [_aln(0, 10, 0, 10, 5), _aln(20, 40, 20, 40, 20)],
                )
            ],
            "q",
        )
        evs = [a.evalue for a in merged]
        assert evs == sorted(evs)
