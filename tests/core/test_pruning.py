"""OrionSearch shard pruning: prepare()-level behaviour and plumbing.

End-to-end accuracy is gated by ``benchmarks/bench_pruning.py``; these
tests pin the mechanics — split subsetting and re-enumeration, the stats
fields, probe-path selection, and pickling hygiene.
"""

import numpy as np
import pytest

from repro.core.orion import OrionSearch
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.mutate import MutationModel


@pytest.fixture(scope="module")
def db():
    return make_database(41, num_sequences=16, mean_length=600)


@pytest.fixture(scope="module")
def query(db):
    q, _ = make_query_with_homologies(
        42,
        length=5000,
        database=db,
        homologies=[HomologySpec(length=400, model=MutationModel.close_homolog())] * 2,
    )
    return q


@pytest.fixture(scope="module")
def planted(db):
    _, truth = make_query_with_homologies(
        42,
        length=5000,
        database=db,
        homologies=[HomologySpec(length=400, model=MutationModel.close_homolog())] * 2,
    )
    return truth


def make_search(db, **kw):
    kw.setdefault("num_shards", 8)
    kw.setdefault("fragment_length", 2000)
    return OrionSearch(db, **kw)


class TestPrepare:
    def test_no_threshold_emits_full_cross_product(self, db, query):
        search = make_search(db)
        plan = search.prepare(query)
        assert len(plan.splits) == len(plan.fragments) * len(search.shards)
        assert plan.pruned_map_tasks == 0
        assert plan.shards_searched == len(search.shards)
        assert plan.shards_pruned == 0
        # No probing happened: the sketch index was never built.
        assert search._sketch_index is None

    def test_threshold_zero_probes_but_keeps_all(self, db, query):
        search = make_search(db, prune_threshold=0.0)
        plan = search.prepare(query)
        assert len(plan.splits) == len(plan.fragments) * len(search.shards)
        assert plan.pruned_map_tasks == 0
        assert search._sketch_index is not None  # the probe machinery ran

    def test_pruned_splits_are_subset_and_contiguous(self, db, query):
        base = make_search(db).prepare(query)
        pruned = make_search(db, prune_threshold=0.05).prepare(query)
        base_pairs = {
            (f.index, shard_index) for f, shard_index in
            (s.payload for s in base.splits)
        }
        pruned_pairs = [
            (f.index, shard_index) for f, shard_index in
            (s.payload for s in pruned.splits)
        ]
        assert set(pruned_pairs) <= base_pairs
        assert len(pruned_pairs) == len(set(pruned_pairs))
        # Split indexes are re-enumerated 0..n-1 (spill naming depends on it).
        assert [s.index for s in pruned.splits] == list(range(len(pruned.splits)))
        assert pruned.pruned_map_tasks == len(base.splits) - len(pruned.splits)

    def test_stats_add_up(self, db, query):
        search = make_search(db, prune_threshold=0.05)
        plan = search.prepare(query)
        assert plan.shards_searched + plan.shards_pruned == len(search.shards)
        searched = {shard_index for _, shard_index in (s.payload for s in plan.splits)}
        assert plan.shards_searched == len(searched)

    def test_aggressive_threshold_keeps_planted_shard(self, db, query, planted):
        """Even at a high threshold, the exact-homolog shards must survive
        for the fragments that carry the homology."""
        search = make_search(db, prune_threshold=0.05)
        plan = search.prepare(query)
        kept_shards = {
            shard_index for _, shard_index in (s.payload for s in plan.splits)
        }
        planted_shards = {
            shard.index
            for shard in search.shards
            for rec in shard.database
            if rec.seq_id in {p.subject_id for p in planted}
        }
        assert planted_shards <= kept_shards

    def test_result_carries_pruning_stats(self, db, query):
        res = make_search(db, prune_threshold=0.05).run(query)
        assert res.pruned_map_tasks > 0
        assert res.num_work_units == len(res.map_records)
        assert res.shards_searched + res.shards_pruned == 8

    def test_invalid_threshold_rejected(self, db):
        with pytest.raises(ValueError, match="prune_threshold"):
            make_search(db, prune_threshold=1.5)


class TestPlumbing:
    def test_pickle_drops_sketch_index(self, db, query):
        import pickle

        search = make_search(db, prune_threshold=0.0)
        search.prepare(query)
        assert search._sketch_index is not None
        clone = pickle.loads(pickle.dumps(search))
        assert clone._sketch_index is None
        # And the clone can rebuild it on demand.
        plan = clone.prepare(query)
        assert len(plan.splits) > 0

    def test_warmup_builds_sketch_index(self, db):
        search = make_search(db, prune_threshold=0.02)
        assert search._sketch_index is None
        search.warmup()
        assert search._sketch_index is not None
        search.close()

    def test_warmup_without_pruning_skips_index(self, db):
        search = make_search(db)
        search.warmup()
        assert search._sketch_index is None
        search.close()

    def test_both_strands_probe_catches_minus_only_homology(self, db):
        """A homology present only as the reverse complement must still
        keep its shard when searching both strands."""
        from repro.sequence.alphabet import reverse_complement
        from repro.sequence.records import Database, SequenceRecord

        rng = np.random.default_rng(77)
        from repro.sequence.alphabet import random_bases

        insert = random_bases(rng, 400)
        query_codes = np.concatenate(
            [random_bases(rng, 1000), insert, random_bases(rng, 1000)]
        )
        subject_codes = np.concatenate(
            [random_bases(rng, 300), reverse_complement(insert), random_bases(rng, 300)]
        )
        decoys = [
            SequenceRecord(f"decoy{i}", random_bases(rng, 800))
            for i in range(7)
        ]
        target = SequenceRecord("rc-target", subject_codes)
        db2 = Database([target] + decoys, name="rcdb")
        query = SequenceRecord("q", query_codes)

        search = OrionSearch(
            db2,
            num_shards=8,
            fragment_length=1200,
            strands="both",
            prune_threshold=0.05,
        )
        plan = search.prepare(query)
        kept = {shard_index for _, shard_index in (s.payload for s in plan.splits)}
        home = next(
            s.index
            for s in search.shards
            if any(r.seq_id == "rc-target" for r in s.database)
        )
        assert home in kept
        # And the alignment itself survives end to end.
        res = search.run(query)
        assert any(a.subject_id == "rc-target" for a in res.alignments)
