"""Tests for the top-level OrionSearch API."""

from dataclasses import replace

import pytest

from repro.cluster.hardware import HardwareModel
from repro.cluster.topology import ClusterSpec, ExecutionProfile
from repro.core.orion import OrionSearch
from repro.core.results import (
    REDUCE_TASKS,
    orion_phases,
    reduce_task_seconds,
    replay_orion,
)
from repro.mapreduce.faults import ANY, FaultInjector, FaultSpec
from repro.units import WorkUnit, WorkUnitRecord
from tests.conftest import alignment_keys


@pytest.fixture(scope="module")
def orion(small_db):
    return OrionSearch(database=small_db, num_shards=4, fragment_length=9000)


@pytest.fixture(scope="module")
def orion_result(orion, query_with_truth):
    query, _ = query_with_truth
    return orion.run(query)


class TestAccuracy:
    def test_equals_serial(self, orion_result, serial_result):
        """The paper's 100%-accuracy claim on this workload."""
        assert alignment_keys(orion_result.alignments) == alignment_keys(
            serial_result.alignments
        )

    def test_evalues_match_serial(self, orion_result, serial_result):
        for o, s in zip(orion_result.alignments, serial_result.alignments):
            assert o.evalue == pytest.approx(s.evalue)

    def test_sorted_output(self, orion_result):
        """Full report order: E-value, then score and the coordinate tie-breaks."""
        keys = [a.sort_key() for a in orion_result.alignments]
        assert keys == sorted(keys)

    def test_query_id_restored(self, orion_result, query_with_truth):
        query, _ = query_with_truth
        assert all(a.query_id == query.seq_id for a in orion_result.alignments)

    def test_speculation_off_is_lossy_or_equal(self, small_db, query_with_truth, serial_result):
        """Ablation: without speculative extension Orion may miss boundary
        alignments, never gain them."""
        query, _ = query_with_truth
        orion = OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000, speculative=False
        )
        res = orion.run(query)
        assert set(alignment_keys(res.alignments)) <= set(
            alignment_keys(serial_result.alignments)
        )


class TestWorkUnits:
    def test_unit_count(self, orion_result):
        assert orion_result.num_work_units == orion_result.num_fragments * 4

    def test_fragment_metadata(self, orion_result, query_with_truth):
        query, _ = query_with_truth
        # 60 kbp at F=9000, L=overlap: ceil((60000-9000)/(9000-L)) + 1 = 7
        assert orion_result.num_fragments == 7
        assert orion_result.overlap >= 11  # at least k

    def test_records_have_measured_durations(self, orion_result):
        assert all(r.measured_seconds > 0 for r in orion_result.map_records)

    def test_task_durations_cover_phases(self, orion_result):
        maps, reduces, sorts = orion_phases([orion_result], HardwareModel())
        assert len(maps) == orion_result.num_work_units
        assert len(reduces) == len(orion_result.reduce_seconds)
        # the measured report sort replays as the paper's sort reducers
        assert orion_result.alignments
        assert len(sorts) == min(4, len(orion_result.alignments))
        assert sum(t.duration for t in sorts) == pytest.approx(orion_result.sort_seconds)
        assert len({t.duration for t in sorts}) == 1
        # an empty report sorts nothing
        _, _, empty_sorts = orion_phases(
            [replace(orion_result, alignments=[])], HardwareModel()
        )
        assert empty_sorts == []

    def test_records_carry_fragment_and_shard_spans(self, orion, orion_result):
        for r in orion_result.map_records:
            assert r.unit.query_span <= 9000
            assert r.unit.subject_span == orion.shards[r.unit.shard_index].total_length


class TestSimulation:
    def test_replay_one_result_is_a_one_member_set(self, orion_result):
        cluster = ClusterSpec(nodes=2, cores_per_node=4)
        sched = replay_orion([orion_result], cluster, HardwareModel())
        assert sched.makespan > 0
        # identity model: map tasks replay their measured seconds
        maps = [s for s in sched.scheduled if "/shard" in s.task.task_id]
        assert [s.task.duration for s in maps] == [
            r.measured_seconds for r in orion_result.map_records
        ]

    def test_more_cores_never_slower(self, orion_result):
        hw = HardwareModel()
        small = replay_orion([orion_result], ClusterSpec(nodes=1, cores_per_node=4), hw)
        big = replay_orion([orion_result], ClusterSpec(nodes=8, cores_per_node=4), hw)
        assert big.makespan <= small.makespan + 1e-9

    def test_hadoop_setup_in_makespan(self, orion_result):
        sched = replay_orion(
            [orion_result], ClusterSpec(nodes=64, cores_per_node=16), HardwareModel()
        )
        # with 1024 slots the job is dominated by the Hadoop constants
        assert sched.makespan >= ExecutionProfile.hadoop().job_setup_seconds


class TestMeasurementDiscipline:
    """DESIGN §4.3: only serial durations are replayed."""

    def test_serial_result_accepted(self, orion_result):
        assert orion_result.simulator_safe
        replay_orion([orion_result], ClusterSpec(nodes=1), HardwareModel())

    def test_processes_result_refused(self, small_db, query_with_truth, serial_result):
        query, _ = query_with_truth
        with OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000,
            executor="processes", num_workers=2,
        ) as search:
            res = search.run(query)
        assert alignment_keys(res.alignments) == alignment_keys(serial_result.alignments)
        assert not res.simulator_safe
        assert not any(r.simulator_safe for r in res.map_records)
        with pytest.raises(ValueError, match="contention"):
            replay_orion([res], ClusterSpec(nodes=1), HardwareModel())

    def test_pool_reduce_records_keep_the_pool_kind(self, small_db, query_with_truth):
        """The pool's reducers run in the driver, yet their records carry the
        pool's kind: a process-backed result is unsafe in every phase."""
        query, _ = query_with_truth
        with OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000,
            executor="processes", num_workers=2,
        ) as search:
            plan = search.prepare(query)
            mr = search.executor.run(plan.job, plan.splits)
        assert len(mr.reduce_records()) == len(mr.outputs) > 0
        assert all(r.executor == "processes" for r in mr.reduce_records())
        assert not any(r.simulator_safe for r in mr.records)


class TestAttemptTrail:
    """Each map record keeps its TaskRecord's attempts, winner and
    fallback reason, so a caller sees which units retried and why a job
    went serial."""

    def test_map_records_carry_attempts_winner_and_fallback_reason(
        self, small_db, query_with_truth
    ):
        query, _ = query_with_truth
        once = FaultSpec(phase="map", kind="transient", index=1, attempt=1)
        with OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000,
            executor="processes", num_workers=2,
            fault_injector=FaultInjector(specs=(once,)),
        ) as search:
            res = search.run(query)
        trail = [(r.attempts, r.winner) for r in res.map_records]
        assert len(trail) > 2
        assert trail[1] == (2, 2)
        assert trail[:1] + trail[2:] == [(1, 1)] * (len(trail) - 1)
        assert all(r.fallback_reason == "" for r in res.map_records)

        always = FaultSpec(phase="map", kind="transient", index=1, attempt=ANY)
        with OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000,
            executor="processes", num_workers=2, retries=2,
            fault_injector=FaultInjector(specs=(always,)),
        ) as search:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                res = search.run(query)
        assert all("TaskFailedError" in r.fallback_reason for r in res.map_records)

    @pytest.mark.parametrize("attempts, winner", [(0, 1), (2, 3), (2, 0)])
    def test_record_rejects_an_impossible_trail(self, attempts, winner):
        unit = WorkUnit(query_id="q", shard_index=0)
        with pytest.raises(ValueError, match="winner"):
            WorkUnitRecord(unit, 0.0, attempts=attempts, winner=winner)


class TestReduceReplay:
    """The driver times one reduce per (subject, strand) key; replay packs
    those times into the paper's ``REDUCE_TASKS`` reduce tasks."""

    def test_packing_rule_is_hadoop_crc32_partitioning(self):
        # Group indices the deleted ``hash_partitioner(key, 8)`` gave.
        groups = {
            ("seq0", 1): 2, ("seq0", -1): 2, ("seq1", 1): 5, ("seq7", -1): 3,
            ("subject.42", 1): 2, ("db_00012", -1): 7,
            ("gi|5524211|gb|AAD44166.1|", 1): 6, ("chr\u00e9", -1): 0,
            ("synthdb.seq00000", 1): 7, ("synthdb.seq00000", -1): 6,
            ("synthdb.seq00001", 1): 0, ("synthdb.seq00001", -1): 3,
            ("synthdb.seq00002", 1): 1, ("synthdb.seq00002", -1): 5,
        }
        assert REDUCE_TASKS == 8
        for key, group in groups.items():
            packed = reduce_task_seconds([key], [1.5])
            assert packed == [1.5 if i == group else 0.0 for i in range(8)], key
        keys = list(groups)
        packed = reduce_task_seconds(keys, [1.0] * len(keys))
        assert packed == [float(list(groups.values()).count(i)) for i in range(8)]

    def test_replay_packs_the_per_key_records(self, orion, query_with_truth):
        query, _ = query_with_truth
        plan = orion.prepare(query)
        mr = orion.executor.run(plan.job, plan.splits)
        result = orion.assemble(plan, mr, 0.0)
        keys = [key for key, _ in mr.outputs]
        per_key = [r.duration for r in mr.reduce_records()]
        assert len(per_key) == len(keys) > 1 and keys == sorted(keys)
        assert result.reduce_seconds == reduce_task_seconds(keys, per_key)
        _, reduces, _ = orion_phases([result], HardwareModel())
        assert len(reduces) == REDUCE_TASKS
        assert sum(t.duration for t in reduces) == pytest.approx(sum(per_key))


class TestFragmentLengthResolution:
    def test_explicit_override_wins(self, orion, query_with_truth):
        query, _ = query_with_truth
        res = orion.run(query, fragment_length=30_000)
        assert res.fragment_length == 30_000

    def test_heuristic_when_unset(self, small_db, query_with_truth):
        query, _ = query_with_truth
        orion = OrionSearch(database=small_db, num_shards=4)
        res = orion.run(query)
        assert res.fragment_length > res.overlap

    @pytest.mark.parametrize("bad", [0, -5])
    def test_override_must_be_positive(self, orion, query_with_truth, bad):
        """``prepare`` used to widen any override at or below the overlap
        to twice the overlap, so 0 or -5 silently planned a flood of tiny
        fragments instead of failing like the constructor argument does."""
        query, _ = query_with_truth
        with pytest.raises(ValueError, match="fragment_length"):
            orion.prepare(query, fragment_length=bad)
        with pytest.raises(ValueError, match="fragment_length"):
            orion.run(query, fragment_length=bad)

    def test_small_query_single_fragment(self, orion, small_db):
        tiny = small_db.records[0].slice(0, 2000, seq_id="tiny")
        res = orion.run(tiny)
        assert res.num_fragments == 1


class _NoIteration(list):
    """A record list that may be sized and indexed but not walked."""

    def __iter__(self):
        raise AssertionError("prepare() walked every database record")


class TestPrepareCost:
    def test_prepare_does_not_iterate_the_records(self, small_db, query_with_truth):
        """Planning a query is O(fragments × shards): the database's total
        length is bookkeeping computed at construction, not a per-query
        sum over every record."""
        query, _ = query_with_truth
        search = OrionSearch(database=small_db, num_shards=4, fragment_length=20_000)
        expected = search.prepare(query)
        records = small_db.records
        small_db.records = _NoIteration(records)
        try:
            plan = search.prepare(query)
        finally:
            small_db.records = records
        assert plan.space == expected.space
        assert plan.overlap == expected.overlap
        assert len(plan.splits) == len(expected.splits) > 0


class TestRunMany:
    def test_query_set(self, orion, small_db, query_with_truth):
        query, _ = query_with_truth
        second = small_db.records[1].slice(0, 3000, seq_id="q2")
        results = orion.run_many([query, second])
        assert set(results) == {query.seq_id, "q2"}
        cluster = ClusterSpec(nodes=2, cores_per_node=2)
        combined = replay_orion(list(results.values()), cluster, HardwareModel())
        assert combined.makespan > 0
        assert len(combined.scheduled) == sum(
            len(p) for p in orion_phases(list(results.values()), HardwareModel())
        )

    def test_duplicate_seq_ids_rejected(self, orion, small_db, query_with_truth):
        """Results are keyed by seq_id — a silent dict collision used to
        drop all but the last duplicate; now the set is rejected up front,
        naming the colliding ids."""
        query, _ = query_with_truth
        twin = small_db.records[2].slice(0, 2500, seq_id=query.seq_id)
        other = small_db.records[1].slice(0, 2500, seq_id="q2")
        with pytest.raises(ValueError) as exc:
            orion.run_many([query, other, twin])
        assert query.seq_id in str(exc.value)
        assert "q2" not in str(exc.value)
        assert "duplicate" in str(exc.value)


class TestValidation:
    def test_bad_args(self, small_db):
        with pytest.raises(ValueError):
            OrionSearch(database=small_db, num_shards=0)
        with pytest.raises(ValueError):
            OrionSearch(database=small_db, strands="minus")

    def test_shuffle_accepts_only_streaming(self, small_db):
        OrionSearch(database=small_db, num_shards=2, shuffle="streaming")
        with pytest.raises(ValueError, match="streaming"):
            OrionSearch(database=small_db, num_shards=2, shuffle="barrier")


class TestPersistentPool:
    def _queries(self, small_db, query_with_truth):
        query, _ = query_with_truth
        return [query, small_db.records[1].slice(0, 3000, seq_id="q2")]

    def test_run_many_uses_one_persistent_pool(
        self, small_db, query_with_truth, monkeypatch
    ):
        """The whole query set (MapReduce + sort jobs) must share one
        process pool — pool-per-query startup is the PR-1 bug."""
        from repro.mapreduce import runtime as runtime_mod

        created = []
        real_pool = runtime_mod.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            created.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(runtime_mod, "ProcessPoolExecutor", counting_pool)
        search = OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000,
            executor="processes", num_workers=2,
        )
        try:
            results = search.run_many(self._queries(small_db, query_with_truth))
            assert len(results) == 2
            assert len(created) == 1
        finally:
            search.close()

    def test_close_releases_segments_and_next_run_rebuilds(
        self, small_db, query_with_truth
    ):
        pytest.importorskip("multiprocessing.shared_memory")
        from repro.mapreduce.shm import segment_exists
        from tests.conftest import alignment_keys as keys

        query, _ = query_with_truth
        search = OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000,
            executor="processes", num_workers=2,
        )
        try:
            r1 = search.run(query)
            assert search._lease is not None
            names = search._lease.handle.segment_names
            search.close()
            assert not any(segment_exists(n) for n in names)
            r2 = search.run(query)  # transparently rebuilds plane + pool
            assert keys(r2.alignments) == keys(r1.alignments)
        finally:
            search.close()

    def test_context_manager_closes(self, small_db, query_with_truth):
        query, _ = query_with_truth
        with OrionSearch(
            database=small_db, num_shards=4, fragment_length=9000,
            executor="processes", num_workers=2,
        ) as search:
            search.run(query)
            pool = search.executor
            assert pool.started
        assert search.executor is pool and search._lease is None
        assert not pool.started


class TestShardScopedCache:
    def test_worker_builds_only_touched_shards(self):
        """A (worker-side) search that maps tasks for one shard must never
        index the other shards' sequences."""
        import pickle

        from repro.core import orion as orion_mod
        from repro.core.fragmenter import fragment_query
        from repro.sequence.generator import make_database

        db = make_database(909, num_sequences=8, mean_length=500, name="lazydb")
        search = OrionSearch(database=db, num_shards=4, fragment_length=None)
        worker = pickle.loads(pickle.dumps(search))  # what a pool worker gets
        assert worker._db_key == search._db_key

        query = db.records[0].slice(0, 400, seq_id="qlazy")
        overlap, space = worker.overlap_for_query(query)
        fragment = fragment_query(query, len(query), overlap)[0]

        store = orion_mod._KMER_STORES.setdefault(worker._db_key, {})
        store.clear()
        worker._map_fragment_shard(
            query.seq_id, len(query), fragment, worker.shards[0], space
        )

        shard0_ids = {r.seq_id for r in worker.shards[0].database}
        all_ids = {r.seq_id for r in db}
        assert set(store) == shard0_ids
        assert shard0_ids < all_ids  # the untouched shards exist and are absent

        # Touching a second shard extends the store incrementally.
        worker._map_fragment_shard(
            query.seq_id, len(query), fragment, worker.shards[1], space
        )
        shard1_ids = {r.seq_id for r in worker.shards[1].database}
        assert set(store) == shard0_ids | shard1_ids

    def test_store_survives_repickling_for_same_database(self):
        """Two job pickles of the same database resolve to one store — the
        cross-query warmth a persistent worker depends on."""
        import pickle

        from repro.core import orion as orion_mod
        from repro.sequence.generator import make_database

        db = make_database(910, num_sequences=4, mean_length=400, name="warmdb")
        s1 = pickle.loads(pickle.dumps(OrionSearch(database=db, num_shards=2)))
        s2 = pickle.loads(pickle.dumps(OrionSearch(database=db, num_shards=2)))
        assert s1._db_key == s2._db_key
        orion_mod._KMER_STORES.pop(s1._db_key, None)
        first = s1._kmer_cache_for_shard(s1.shards[0])
        second = s2._kmer_cache_for_shard(s2.shards[0])
        assert first is second  # the module-level store itself

    def test_stores_are_bounded_least_recently_used_first(self):
        """Serial searches over one database more than the limit leave at
        most the limit's stores, the oldest database's gone."""
        from repro.core import orion as orion_mod
        from repro.sequence.generator import make_database

        limit = orion_mod._KMER_STORE_LIMIT
        keys = []
        for i in range(limit + 1):
            db = make_database(920 + i, num_sequences=2, mean_length=300, name=f"lru{i}")
            search = OrionSearch(database=db, num_shards=1, fragment_length=None)
            search.run(db.records[0].slice(0, 200, seq_id=f"q{i}"))
            keys.append(search._db_key)
            assert search._db_key in orion_mod._KMER_STORES
        assert len(orion_mod._KMER_STORES) <= limit
        assert keys[0] not in orion_mod._KMER_STORES
        assert all(key in orion_mod._KMER_STORES for key in keys[1:])

    def test_query_loop_over_one_database_never_evicts(self):
        from repro.core import orion as orion_mod
        from repro.sequence.generator import make_database

        db = make_database(930, num_sequences=3, mean_length=300, name="loopdb")
        search = OrionSearch(database=db, num_shards=2, fragment_length=None)
        search.run(db.records[0].slice(0, 200, seq_id="q0"))
        store = orion_mod._KMER_STORES[search._db_key]
        for i in range(orion_mod._KMER_STORE_LIMIT + 2):
            search.run(db.records[i % 3].slice(0, 200, seq_id=f"q{i}"))
            assert orion_mod._KMER_STORES[search._db_key] is store
        assert set(store) == {r.seq_id for r in db}

    def test_plane_jobs_in_one_worker_share_one_shard_list(self):
        """Every job a worker loads for a plane-backed search reuses the
        shard list built by the first; detaching the views drops it."""
        import pickle

        from repro.mapreduce import shm
        from repro.mpiblast.formatdb import shard_database
        from repro.sequence.generator import make_database

        if not shm.HAVE_SHARED_MEMORY:  # pragma: no cover - platform
            pytest.skip("no POSIX shared memory")
        db = make_database(911, num_sequences=9, mean_length=300, name="sharddb")
        search = OrionSearch(
            database=db, num_shards=3, executor="processes", num_workers=1,
        )
        try:
            search._ensure_plane()
            blob = pickle.dumps(search)
            first, second = pickle.loads(blob), pickle.loads(blob)
            assert first.shards is second.shards
            want = shard_database(db, 3)
            assert [[r.seq_id for r in s.database] for s in first.shards] == [
                [r.seq_id for r in s.database] for s in want
            ]
            shm.detach_cached_views()
            third = pickle.loads(blob)
            assert third.shards is not first.shards
        finally:
            shm.detach_cached_views()
            search.close()


class TestJobFitsOnePage:
    def test_mapper_pickles_within_one_page(self):
        """A process-backed query's mapper names the plane by digest and
        generation and the query by id and length: it carries neither the
        query's codes nor the database, so it fits in one page even over
        the perf ledger's ``short_subjects`` geometry (copied in)."""
        import mmap
        import pickle

        from repro.mapreduce import shm
        from repro.sequence.generator import (
            HomologySpec,
            make_database,
            make_query_with_homologies,
        )

        if not shm.HAVE_SHARED_MEMORY:  # pragma: no cover - platform
            pytest.skip("no POSIX shared memory")
        db = make_database(
            7001, num_sequences=500, mean_length=500,
            name="ledger_short_subjects", length_cv=0.5,
        )
        query, _ = make_query_with_homologies(
            7002, 8_000, db, [HomologySpec(length=200)], seq_id="timed00000"
        )
        with OrionSearch(
            db, num_shards=4, fragment_length=2_700,
            executor="processes", num_workers=2,
        ) as search:
            search._ensure_plane()
            assert search._lease is not None
            blob = pickle.dumps(search.prepare(query).job.mapper)
        assert len(blob) <= mmap.PAGESIZE
        assert query.codes.tobytes() not in blob
        assert not [rec.seq_id for rec in db if rec.seq_id.encode() in blob]


def _canonical(alignments):
    """Alignments as comparable tuples: every field, traceback bytes included."""
    out = []
    for aln in alignments:
        fields = dict(vars(aln))
        path = fields.pop("path")
        fields["path"] = None if path is None else path.tobytes()
        out.append(tuple(sorted(fields.items())))
    return out


class TestBothStrandsOnThePool:
    """Any shard count, both strands: the pool's map tasks feed the driver's
    shuffle exactly what the serial executor's do."""

    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_processes_equal_serial_on_both_strands(
        self, small_db, query_with_truth, num_shards
    ):
        query, _ = query_with_truth
        results = {}
        for executor in ("serial", "processes"):
            with OrionSearch(
                small_db, num_shards=num_shards, fragment_length=9000, strands="both",
                executor=executor, num_workers=2,
            ) as search:
                results[executor] = search.run(query)
        assert _canonical(results["processes"].alignments) == _canonical(
            results["serial"].alignments
        )
        assert results["processes"].merged_pairs == results["serial"].merged_pairs


class TestDivergentPlants:
    """Distant-homolog plants come back from BLAST as several nearby HSPs.
    One sits inside a fragment, one straddles an overlap; Orion must equal
    a plain whole-query search on both."""

    FRAGMENT = 6000

    @pytest.mark.parametrize("seed", [25, 27, 39])
    def test_equals_plain_search(self, small_db, engine, seed):
        import numpy as np

        from repro.core.fragmenter import fragment_query
        from repro.sequence.alphabet import random_bases
        from repro.sequence.mutate import MutationModel, apply_mutations
        from repro.sequence.records import SequenceRecord

        rng = np.random.default_rng(seed)
        codes = random_bases(rng, 24_000)
        search = OrionSearch(small_db, num_shards=4, fragment_length=self.FRAGMENT)
        placeholder = SequenceRecord("divergent", codes)
        overlap, _ = search.overlap_for_query(placeholder)
        fragments = fragment_query(placeholder, self.FRAGMENT, overlap)
        donors = [r for r in small_db.records if len(r) >= 2000]
        plants = (
            (fragments[1].offset + overlap // 2, donors[1]),  # across an overlap
            (fragments[2].offset + self.FRAGMENT // 2, donors[4]),  # inside one
        )
        for centre, donor in plants:
            piece = apply_mutations(
                rng, donor.codes[500:1300], MutationModel.distant_homolog()
            )
            start = centre - piece.size // 2
            codes[start : start + piece.size] = piece
        query = SequenceRecord("divergent", codes)

        expected = engine.search(query, small_db).alignments
        for _, donor in plants:
            assert sum(a.subject_id == donor.seq_id for a in expected) >= 2
        assert _canonical(search.run(query).alignments) == _canonical(expected)
