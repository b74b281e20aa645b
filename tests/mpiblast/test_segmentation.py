"""Tests for mpiBLAST query segmentation (Fig. 1's coarsest granularity)."""

import pytest

from repro.mpiblast.runner import MpiBlastRunner
from tests.conftest import alignment_keys


@pytest.fixture(scope="module")
def query_pair(small_db):
    q1 = small_db.records[0].slice(0, 4000, seq_id="qa")
    q2 = small_db.records[1].slice(0, 3000, seq_id="qb")
    return [q1, q2]


class TestQuerySegmentation:
    def test_results_independent_of_segmentation(self, small_db, query_pair):
        """Batching queries into segments changes scheduling, not results."""
        fine = MpiBlastRunner().run(query_pair, small_db, 4)
        coarse = MpiBlastRunner().run(
            query_pair, small_db, 4, queries_per_segment=2
        )
        for q in query_pair:
            assert alignment_keys(coarse.alignments[q.seq_id]) == alignment_keys(
                fine.alignments[q.seq_id]
            )

    def test_unit_counts(self, small_db, query_pair):
        fine = MpiBlastRunner().run(query_pair, small_db, 4)
        coarse = MpiBlastRunner().run(
            query_pair, small_db, 4, queries_per_segment=2
        )
        assert len(fine.records) == 2 * 4
        assert len(coarse.records) == 1 * 4

    def test_segment_units_carry_combined_work(self, small_db, query_pair):
        fine = MpiBlastRunner().run(query_pair, small_db, 4)
        coarse = MpiBlastRunner().run(
            query_pair, small_db, 4, queries_per_segment=2
        )
        assert coarse.records[0].unit.query_span == sum(len(q) for q in query_pair)
        # total measured work is conserved (same searches, different grouping)
        assert coarse.total_measured_seconds == pytest.approx(
            fine.total_measured_seconds, rel=0.5
        )

    def test_segment_ids_label_batches(self, small_db, query_pair):
        coarse = MpiBlastRunner().run(
            query_pair, small_db, 4, queries_per_segment=2
        )
        assert all("segment000[2q]" in r.unit.task_id for r in coarse.records)

    def test_validation(self, small_db, query_pair):
        with pytest.raises(ValueError):
            MpiBlastRunner().run(
                query_pair, small_db, 4, queries_per_segment=0
            )
