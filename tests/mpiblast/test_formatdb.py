"""Tests for mpiformatdb-style database sharding."""

import pytest

from repro.mpiblast.formatdb import shard_database
from repro.sequence.generator import make_database
from repro.sequence.records import Database, SequenceRecord


class TestShardDatabase:
    def test_union_is_database_in_order(self, small_db):
        shards = shard_database(small_db, 4)
        ids = [r.seq_id for s in shards for r in s.database]
        assert ids == [r.seq_id for r in small_db]

    def test_shard_count(self, small_db):
        assert len(shard_database(small_db, 4)) == 4
        assert len(shard_database(small_db, 1)) == 1

    def test_cannot_exceed_sequence_count(self):
        db = Database([SequenceRecord.from_text(f"s{i}", "ACGT" * 10) for i in range(3)])
        shards = shard_database(db, 10)
        assert len(shards) == 3
        assert all(s.num_sequences == 1 for s in shards)

    def test_no_empty_shards(self, small_db):
        for n in (2, 5, 10, 20):
            shards = shard_database(small_db, n)
            assert all(s.num_sequences >= 1 for s in shards)

    def test_approximately_balanced(self):
        db = make_database(9, num_sequences=200, mean_length=2000)
        shards = shard_database(db, 8)
        sizes = [s.total_length for s in shards]
        assert max(sizes) / (sum(sizes) / len(sizes)) < 1.35  # max/mean

    def test_indices_sequential(self, small_db):
        shards = shard_database(small_db, 5)
        assert [s.index for s in shards] == list(range(5))

    def test_shard_names(self, small_db):
        shards = shard_database(small_db, 2)
        assert shards[0].database.name.endswith(".000")

    def test_bad_count_rejected(self, small_db):
        with pytest.raises(ValueError):
            shard_database(small_db, 0)

