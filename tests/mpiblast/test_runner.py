"""Tests for the mpiBLAST runner."""

import pytest

from repro.cluster.hardware import CacheModel, DPMemoryModel, HardwareModel, OutOfMemoryError
from repro.cluster.topology import ClusterSpec, ExecutionProfile
from repro.mpiblast.runner import MpiBlastRunner, replay_mpiblast
from tests.conftest import alignment_keys


@pytest.fixture(scope="module")
def mpi_result(small_db, query_with_truth):
    query, _ = query_with_truth
    runner = MpiBlastRunner()
    return runner.run([query], small_db, num_shards=4)


class TestCorrectness:
    def test_equals_serial(self, mpi_result, serial_result, query_with_truth):
        """Database sharding is lossless: mpiBLAST == serial BLAST."""
        query, _ = query_with_truth
        assert alignment_keys(mpi_result.alignments[query.seq_id]) == alignment_keys(
            serial_result.alignments
        )

    def test_evalues_match_serial(self, mpi_result, serial_result, query_with_truth):
        query, _ = query_with_truth
        mpi_sorted = sorted(mpi_result.alignments[query.seq_id], key=lambda a: a.sort_key())
        for m, s in zip(mpi_sorted, serial_result.alignments):
            assert m.evalue == pytest.approx(s.evalue)

    def test_work_unit_count(self, mpi_result):
        assert len(mpi_result.records) == 4  # 1 query x 4 shards

    def test_makespan_positive(self, mpi_result):
        span, busy, _ = replay_mpiblast(
            mpi_result.records, ClusterSpec(nodes=2, cores_per_node=4), HardwareModel()
        )
        assert span > 0
        assert busy.sum() > 0

    def test_all_alignments_sorted_by_query_id(self):
        """Regression (ORL004 fix): flattening must follow sorted query-id
        order, not the alignments dict's incidental insertion order."""
        from repro.blast.hsp import Alignment
        from repro.mpiblast.runner import MpiBlastResult

        def aln(qid):
            return Alignment(
                query_id=qid, subject_id="s", q_start=0, q_end=10,
                s_start=0, s_end=10, score=5, evalue=1e-6, bits=1.0,
            )

        result = MpiBlastResult(
            alignments={"q2": [aln("q2")], "q1": [aln("q1"), aln("q1")]},
            records=[],
            num_shards=1,
        )
        assert [a.query_id for a in result.all_alignments()] == ["q1", "q1", "q2"]


class TestMemoryModel:
    def test_long_query_rejected(self, small_db, query_with_truth):
        query, _ = query_with_truth
        model = DPMemoryModel(node_memory_bytes=1, bytes_per_cell=1.0)
        runner = MpiBlastRunner(hardware=HardwareModel(memory=model))
        with pytest.raises(OutOfMemoryError, match="dynamic programming"):
            runner.run([query], small_db, num_shards=2)


class TestReplay:
    def test_records_carry_whole_query_and_shard_spans(self, mpi_result, query_with_truth):
        query, _ = query_with_truth
        assert all(r.unit.query_span == len(query) for r in mpi_result.records)
        assert all(r.unit.subject_span > 0 for r in mpi_result.records)

    def test_replay_schedules_every_unit_with_mpi_overheads(self, mpi_result):
        cluster = ClusterSpec(nodes=1, cores_per_node=3)  # 2 workers + master
        span, busy, assignments = replay_mpiblast(mpi_result.records, cluster, HardwareModel())
        assert len(assignments) == len(mpi_result.records)
        assert busy.shape == (2,)
        profile = ExecutionProfile.mpi()
        assert span >= profile.job_setup_seconds + profile.job_teardown_seconds + max(
            r.measured_seconds for r in mpi_result.records
        )

    def test_cache_inflates_every_whole_query_unit(self, mpi_result):
        cluster = ClusterSpec(nodes=1, cores_per_node=4)
        plain = replay_mpiblast(mpi_result.records, cluster, HardwareModel())[0]
        cached = replay_mpiblast(
            mpi_result.records, cluster,
            HardwareModel(cache=CacheModel(threshold=1000.0, exponent=1.0)),
        )[0]
        assert cached > plain


class TestValidation:
    def test_empty_queries_rejected(self, small_db):
        with pytest.raises(ValueError):
            MpiBlastRunner().run([], small_db, num_shards=2)

    def test_duplicate_query_ids_rejected(self, small_db, query_with_truth):
        query, _ = query_with_truth
        with pytest.raises(ValueError, match="duplicate"):
            MpiBlastRunner().run([query, query], small_db, num_shards=2)
