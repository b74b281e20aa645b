"""Cross-substrate integration: FASTA round trips and failures.

Exercises the seams between packages: the sequence layer feeding the
engine, and the simulator consuming real runner records.
"""

from repro.cluster.simulator import NodeFailure, simulate_phase
from repro.cluster.tasks import SimTask
from repro.cluster.topology import ClusterSpec
from repro.core.orion import OrionSearch
from repro.sequence.fasta import read_fasta, write_fasta


class TestFastaThroughEngine:
    def test_round_tripped_query_gives_identical_results(
        self, engine, small_db, query_with_truth, serial_result, tmp_path
    ):
        query, _ = query_with_truth
        write_fasta([query], tmp_path / "q.fa")
        back = read_fasta(tmp_path / "q.fa")[0]
        res = engine.search(back, small_db)
        from tests.conftest import alignment_keys

        assert alignment_keys(res.alignments) == alignment_keys(serial_result.alignments)


class TestSimulatedFailureRecovery:
    def test_orion_work_survives_node_failure(self, small_db, query_with_truth):
        """Replaying Orion's map tasks with a node failure: every task still
        completes (Hadoop re-execution), makespan grows."""
        query, _ = query_with_truth
        orion = OrionSearch(database=small_db, num_shards=4, fragment_length=12_000)
        res = orion.run(query)
        tasks = [
            SimTask(task_id=r.unit.task_id, duration=max(r.measured_seconds, 1e-4))
            for r in res.map_records
        ]
        cluster = ClusterSpec(nodes=4, cores_per_node=2)
        clean = simulate_phase(tasks, cluster)
        failed = simulate_phase(
            tasks, cluster, failures=[NodeFailure(node=0, time=clean.end_time / 4)]
        )
        done = {s.task.task_id for s in failed.scheduled if s.completed}
        assert done == {t.task_id for t in tasks}
        assert failed.end_time >= clean.end_time - 1e-9
