"""Tests for the BLAST+ single-node runner."""

import pytest

from repro.blastplus.runner import BlastPlusRunner, replay_blastplus
from repro.cluster.hardware import HardwareModel
from repro.cluster.topology import ClusterSpec
from tests.conftest import alignment_keys


@pytest.fixture(scope="module")
def bp_result(small_db, query_with_truth):
    query, _ = query_with_truth
    runner = BlastPlusRunner(chunk_size=20_000, chunk_overlap=3000)
    return runner.run(query, small_db, threads=4)


class TestCorrectness:
    def test_equals_serial_with_generous_overlap(self, bp_result, serial_result):
        """With overlap exceeding every alignment length, query splitting
        loses nothing on this workload."""
        assert alignment_keys(bp_result.alignments) == alignment_keys(
            serial_result.alignments
        )

    def test_chunk_count(self, bp_result, query_with_truth):
        query, _ = query_with_truth
        # 60 kbp, chunk 20 kbp, stride 17 kbp -> ceil((60-20)/17)+1 = 4
        assert bp_result.num_chunks == 4

    def test_work_units(self, bp_result):
        assert len(bp_result.records) == bp_result.num_chunks * 4  # 4 thread slices

    def test_sorted_output(self, bp_result):
        evs = [a.evalue for a in bp_result.alignments]
        assert evs == sorted(evs)


def replay_on_node(result):
    node = ClusterSpec(nodes=1, cores_per_node=result.threads)
    return replay_blastplus(result.records, node, HardwareModel())


class TestExecutionModel:
    def test_chunk_barriers_serialize_phases(self, small_db, query_with_truth):
        query, _ = query_with_truth
        runner = BlastPlusRunner(chunk_size=20_000, chunk_overlap=3000)
        res = runner.run(query, small_db, threads=2)
        schedule = replay_on_node(res)
        # number of simulated phases == chunks; phase ends are monotone
        assert len(schedule.phase_ends) == res.num_chunks
        assert schedule.phase_ends == sorted(schedule.phase_ends)

    def test_single_node_ceiling(self, bp_result):
        assert replay_on_node(bp_result).cluster.nodes == 1

    def test_replay_runs_each_chunk_after_the_previous(self, bp_result):
        """One phase per chunk: no unit of chunk i+1 starts before every
        unit of chunk i has finished."""
        schedule = replay_on_node(bp_result)
        chunk_of = {r.unit.task_id: r.unit.fragment_index for r in bp_result.records}
        ends = {}
        for s in schedule.scheduled:
            c = chunk_of[s.task.task_id]
            ends[c] = max(ends.get(c, 0.0), s.end)
        for s in schedule.scheduled:
            c = chunk_of[s.task.task_id]
            if c > 0:
                assert s.start >= ends[c - 1]
        assert all(r.unit.query_span <= 20_000 for r in bp_result.records)

    def test_small_query_single_chunk(self, small_db):
        q = small_db.records[0].slice(0, 2000, seq_id="tiny")
        res = BlastPlusRunner(chunk_size=50_000, chunk_overlap=1000).run(q, small_db, threads=2)
        assert res.num_chunks == 1

    def test_validation(self, small_db, query_with_truth):
        query, _ = query_with_truth
        with pytest.raises(ValueError):
            BlastPlusRunner(chunk_size=0)
        with pytest.raises(ValueError):
            BlastPlusRunner().run(query, small_db, threads=0)
