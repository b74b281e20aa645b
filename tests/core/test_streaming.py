"""Tests for the Hadoop-streaming text codec and streaming-mode Orion."""

import numpy as np
import pytest

from repro.blast.hsp import OP_DIAG, OP_QGAP, OP_SGAP, Alignment, cigar_to_path, path_to_cigar
from repro.core.orion import OrionSearch
from repro.core.results import FragmentAlignment
from repro.core.streaming import (
    decode_fragment_alignment,
    encode_fragment_alignment,
    shuffle_key_to_text,
    text_to_shuffle_key,
)
from tests.conftest import alignment_keys


class TestCigar:
    def test_round_trip(self):
        path = np.array([OP_DIAG] * 5 + [OP_QGAP] * 2 + [OP_DIAG] * 3 + [OP_SGAP], dtype=np.uint8)
        cigar = path_to_cigar(path)
        assert cigar == "5M2D3M1I"
        assert np.array_equal(cigar_to_path(cigar), path)

    def test_empty(self):
        assert path_to_cigar(np.zeros(0, dtype=np.uint8)) == ""
        assert cigar_to_path("").size == 0

    def test_long_runs_compact(self):
        path = np.full(10_000, OP_DIAG, dtype=np.uint8)
        assert path_to_cigar(path) == "10000M"

    @pytest.mark.parametrize("bad", ["M", "3X", "12", "3M4"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            cigar_to_path(bad)


class TestFragmentAlignmentCodec:
    def _fa(self, path=True):
        aln = Alignment(
            query_id="hs.contig", subject_id="db.seq00042", q_start=100, q_end=110,
            s_start=5, s_end=15, score=10, evalue=1.5e-12, bits=25.5,
            matches=9, mismatches=1, gap_opens=0, gap_columns=0,
            speculative=True,
            path=np.full(10, OP_DIAG, dtype=np.uint8) if path else None,
        )
        return FragmentAlignment(alignment=aln, fragment_index=3, partial_left=True)

    def test_round_trip(self):
        fa = self._fa()
        back = decode_fragment_alignment(encode_fragment_alignment(fa))
        assert back.fragment_index == 3
        assert back.partial_left and not back.partial_right
        a, b = fa.alignment, back.alignment
        assert a.query_id == b.query_id and a.subject_id == b.subject_id
        assert a.q_interval == b.q_interval and a.s_interval == b.s_interval
        assert a.score == b.score and a.evalue == b.evalue and a.bits == b.bits
        assert a.speculative == b.speculative
        assert np.array_equal(a.path, b.path)

    def test_pathless_round_trip(self):
        fa = self._fa(path=False)
        back = decode_fragment_alignment(encode_fragment_alignment(fa))
        assert back.alignment.path is None

    def test_evalue_precision_preserved(self):
        fa = self._fa()
        back = decode_fragment_alignment(encode_fragment_alignment(fa))
        assert back.alignment.evalue == fa.alignment.evalue  # repr round-trip

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="fields"):
            decode_fragment_alignment("a\tb\tc")

    def test_shuffle_key_round_trip(self):
        assert text_to_shuffle_key(shuffle_key_to_text(("seq|weird", -1))) == ("seq|weird", -1)
        with pytest.raises(ValueError):
            text_to_shuffle_key("nodelimiter")


class TestStreamingOrion:
    def test_streaming_equals_object_mode(self, small_db, query_with_truth, serial_result):
        """The paper's Hadoop-streaming data path must change nothing."""
        query, _ = query_with_truth
        obj = OrionSearch(database=small_db, num_shards=4, fragment_length=9000)
        stream = OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000, use_streaming=True
        )
        res_obj = obj.run(query)
        res_stream = stream.run(query)
        assert alignment_keys(res_stream.alignments) == alignment_keys(res_obj.alignments)
        assert alignment_keys(res_stream.alignments) == alignment_keys(serial_result.alignments)

    def test_streaming_merge_case(self, small_db, query_with_truth):
        """Boundary-crossing merges also survive the text round trip."""
        query, _ = query_with_truth
        stream = OrionSearch(
            database=small_db, num_shards=4, fragment_length=5000, use_streaming=True
        )
        obj = OrionSearch(database=small_db, num_shards=4, fragment_length=5000)
        assert alignment_keys(stream.run(query).alignments) == alignment_keys(
            obj.run(query).alignments
        )
