"""The paper's central accuracy claim (Section V-C):

    "Orion achieved superior performance for the longer queries, [and] did
     not miss any alignments reported by mpiBLAST, which is the same as
     alignments reported by BLAST. Thus, the accuracy of Orion remained at
     100% for all the query sequences."

These tests assert the full equality chain — serial BLAST == mpiBLAST ==
Orion — across seeds, fragment lengths, shard counts and divergence levels,
on workloads with planted ground truth.
"""

import pytest

from repro.blast.engine import BlastEngine
from repro.core.orion import OrionSearch
from repro.mpiblast.runner import MpiBlastRunner
from repro.sequence.generator import HomologySpec, make_database, make_query_with_homologies
from repro.sequence.mutate import MutationModel
from tests.conftest import alignment_keys


def build_workload(seed):
    db = make_database(seed=seed, num_sequences=25, mean_length=5000)
    query, truth = make_query_with_homologies(
        seed=seed + 1,
        length=70_000,
        database=db,
        homologies=[
            HomologySpec(length=1800, model=MutationModel.close_homolog()),
            HomologySpec(length=900, model=MutationModel.distant_homolog()),
            HomologySpec(
                length=1200,
                model=MutationModel(substitution_rate=0.06, insertion_rate=0.01, deletion_rate=0.01),
            ),
        ],
    )
    return db, query, truth


class TestEqualityChain:
    @pytest.mark.parametrize("seed", [11, 42])
    def test_serial_mpiblast_orion_identical(self, seed):
        db, query, truth = build_workload(seed)
        engine = BlastEngine()
        serial = alignment_keys(engine.search(query, db).alignments)

        mpi = MpiBlastRunner().run([query], db, num_shards=5)
        assert alignment_keys(mpi.alignments[query.seq_id]) == serial

        for frag_len in (8000, 15_000):
            orion = OrionSearch(database=db, num_shards=5, fragment_length=frag_len)
            res = orion.run(query)
            assert alignment_keys(res.alignments) == serial, f"F={frag_len}"

    def test_every_planted_homology_reported(self):
        db, query, truth = build_workload(7)
        orion = OrionSearch(database=db, num_shards=5, fragment_length=9000)
        res = orion.run(query)
        for t in truth:
            qs, qe = t.query_interval
            hits = [
                a for a in res.alignments
                if a.subject_id == t.subject_id and a.q_start < qe and a.q_end > qs
            ]
            assert hits, f"planted homology {t.query_interval} missing from Orion output"

    def test_boundary_straddling_homology(self):
        """Force a homology to straddle a fragment boundary exactly and
        verify the aggregated alignment equals serial."""
        db, query, truth = build_workload(23)
        engine = BlastEngine()
        serial = alignment_keys(engine.search(query, db).alignments)
        t = truth[0]
        mid = sum(t.query_interval) // 2
        # choose a fragment length whose first boundary lands mid-homology
        orion = OrionSearch(database=db, num_shards=5)
        overlap, _ = orion.overlap_for_query(query)
        frag_len = mid + overlap // 2
        res = orion.run(query, fragment_length=frag_len)
        assert alignment_keys(res.alignments) == serial

    def test_shard_count_invariance(self):
        db, query, _ = build_workload(31)
        engine = BlastEngine()
        serial = alignment_keys(engine.search(query, db).alignments)
        for shards in (1, 3, 10):
            orion = OrionSearch(database=db, num_shards=shards, fragment_length=12_000)
            assert alignment_keys(orion.run(query).alignments) == serial
