"""Tests for SequenceRecord and Database."""

import numpy as np
import pytest

from repro.sequence.alphabet import encode
from repro.sequence.records import Database, SequenceRecord


class TestSequenceRecord:
    def test_from_text(self):
        rec = SequenceRecord.from_text("chr1", "ACGT", description="test")
        assert rec.seq_id == "chr1"
        assert rec.text == "ACGT"
        assert len(rec) == 4

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            SequenceRecord(seq_id="", codes=encode("ACGT"))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            SequenceRecord(seq_id="x", codes=np.zeros(4, dtype=np.int32))

    def test_slice_is_view(self):
        rec = SequenceRecord.from_text("x", "ACGTACGT")
        sub = rec.slice(2, 6)
        assert sub.text == "GTAC"
        assert sub.codes.base is rec.codes or sub.codes.base is rec.codes.base

    def test_slice_new_id(self):
        rec = SequenceRecord.from_text("x", "ACGT")
        assert rec.slice(0, 2, seq_id="y").seq_id == "y"

    def test_slice_bounds_checked(self):
        rec = SequenceRecord.from_text("x", "ACGT")
        with pytest.raises(ValueError):
            rec.slice(2, 9)
        with pytest.raises(ValueError):
            rec.slice(-1, 2)

    def test_equality(self):
        a = SequenceRecord.from_text("x", "ACGT")
        b = SequenceRecord.from_text("x", "ACGT")
        c = SequenceRecord.from_text("x", "ACGA")
        assert a == b
        assert a != c


class TestDatabase:
    def _db(self):
        return Database(
            [
                SequenceRecord.from_text("s1", "ACGT" * 10),
                SequenceRecord.from_text("s2", "TTTT" * 5),
                SequenceRecord.from_text("s3", "GG"),
            ],
            name="testdb",
        )

    def test_total_length(self):
        db = self._db()
        assert db.total_length == 40 + 20 + 2
        assert db.num_sequences == 3

    def test_lookup_and_contains(self):
        db = self._db()
        assert db["s2"].seq_id == "s2"
        assert "s3" in db
        assert "nope" not in db

    def test_iteration_order(self):
        assert [r.seq_id for r in self._db()] == ["s1", "s2", "s3"]

    def test_lengths(self):
        assert self._db().lengths().tolist() == [40, 20, 2]

    def test_lengths_returns_a_private_copy(self):
        db = self._db()
        db.lengths()[0] = 0
        assert db.lengths().tolist() == [40, 20, 2]
        assert db.total_length == 62

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Database(
                [
                    SequenceRecord.from_text("s1", "AC"),
                    SequenceRecord.from_text("s1", "GT"),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Database([])
