"""Differential tests for pooled, filtered seeding (one join per shard).

``find_seeds`` pools every subject's k-mers into one needle array, runs it
through the query index's presence filter and joins the survivors. The
references here do none of that: a dictionary over literal k-windows for
the hit sets, and the per-subject oracle of ``tests/conftest.py`` — the
shape of the engine before the pooled join — for alignments and counters.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast import lookup as lookup_mod
from repro.blast.engine import BlastEngine
from repro.blast.hsp import SeedHits
from repro.blast.lookup import QueryIndex, sorted_kmers
from repro.blast.params import BlastParams, SearchOptions
from repro.blast.seeds import find_seeds, thin_seeds
from repro.sequence.alphabet import UNKNOWN_CODE, random_bases, reverse_complement
from repro.sequence.records import Database, SequenceRecord
from tests.conftest import lookup, reference_search

KS = [7, 11, 16, 31]


def pairs(hits):
    return sorted(zip(hits.q_pos.tolist(), hits.s_pos.tolist()))


def brute_hits(q_codes, s_codes, k):
    """Every exact k-window match, from the bases themselves."""
    windows = {}
    for i in range(len(q_codes) - k + 1):
        word = q_codes[i : i + k]
        if (word < 4).all():
            windows.setdefault(word.tobytes(), []).append(i)
    out = []
    for j in range(len(s_codes) - k + 1):
        word = s_codes[j : j + k]
        if (word < 4).all():
            out.extend((i, j) for i in windows.get(word.tobytes(), ()))
    return sorted(out)


def make_case(seed, k, num_subjects):
    """A query and subjects sharing repeats, with N runs and short subjects."""
    rng = np.random.default_rng(seed)
    repeat = random_bases(rng, k + int(rng.integers(0, 12)))
    query = np.concatenate(
        [random_bases(rng, 40), repeat, random_bases(rng, 25), repeat, random_bases(rng, 40)]
    )
    query[int(rng.integers(0, len(query)))] = UNKNOWN_CODE
    subjects = []
    for i in range(num_subjects):
        kind = int(rng.integers(0, 5))
        if kind == 0:  # shorter than k: indexes nothing
            codes = random_bases(rng, int(rng.integers(0, k)))
        elif kind == 1:  # no planted homology
            codes = random_bases(rng, int(rng.integers(k, 120)))
        else:  # repeats on the subject side too, sometimes around an N
            lo = int(rng.integers(0, len(query) - k))
            codes = np.concatenate(
                [repeat, random_bases(rng, 15), query[lo : lo + 3 * k], repeat]
            )
            if kind == 4:
                codes[int(rng.integers(0, len(codes)))] = UNKNOWN_CODE
        subjects.append(SequenceRecord(seq_id=f"s{i}", codes=codes))
    return query, subjects


def saturate(index):
    """Every presence slot set: the filter passes every needle."""
    index._presence[:] = True


def collide(index, bits=2):
    """A 2^bits-slot table for the same keys: nearly every needle collides."""
    index._presence_shift = np.uint64(64 - bits)
    index._presence = np.zeros(1 << bits, dtype=bool)
    index._presence[
        lookup_mod._presence_slots(index._sorted_keys, index._presence_shift)
    ] = True


class TestPooledHitSets:
    @given(
        seed=st.integers(0, 2**16),
        k=st.sampled_from(KS),
        num_subjects=st.integers(1, 7),
        cached=st.sampled_from(["none", "all", "some"]),
        table=st.sampled_from(["sized", "saturated", "colliding"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_pooled_equals_brute_force_per_subject(
        self, seed, k, num_subjects, cached, table
    ):
        query, subjects = make_case(seed, k, num_subjects)
        index = QueryIndex(query, k)
        if table == "saturated":
            saturate(index)
        elif table == "colliding":
            collide(index)
        cache = None
        if cached != "none":
            cache = {
                s.seq_id: sorted_kmers(s.codes, k)
                for i, s in enumerate(subjects)
                if cached == "all" or i % 2 == 0
            }
        found = find_seeds(index, subjects, cache)
        assert (np.diff(found.owner) >= 0).all()  # database order
        for ordinal, subject in enumerate(subjects):
            want = brute_hits(query, subject.codes, k)
            got = found.take(found.owner == ordinal)
            assert pairs(got) == want
            # ... and hit for hit after thinning, against the one-subject path.
            reference = SeedHits(*lookup(index, subject.codes), k)
            assert pairs(reference) == want
            thinned, ref_thinned = thin_seeds(got), thin_seeds(reference)
            assert thinned.q_pos.tolist() == ref_thinned.q_pos.tolist()
            assert thinned.s_pos.tolist() == ref_thinned.s_pos.tolist()

    @pytest.mark.parametrize("k", KS)
    def test_empty_shard_and_empty_index(self, k):
        rng = np.random.default_rng(k)
        subject = SequenceRecord("s", random_bases(rng, 80))
        assert len(find_seeds(QueryIndex(random_bases(rng, 60), k), [])) == 0
        for empty_query in (random_bases(rng, k - 1), np.full(50, UNKNOWN_CODE, np.uint8)):
            index = QueryIndex(empty_query, k)
            assert index.num_words == 0
            assert len(find_seeds(index, [subject])) == 0
            assert [a.size for a in lookup(index, subject.codes)] == [0, 0]

    def test_false_positives_are_dropped_by_the_exact_join(self):
        """Disjoint k-mer sets behind a saturated table: every needle
        survives the filter, none survives the join."""
        query = np.zeros(60, dtype=np.uint8)  # only AAAA…
        subject = SequenceRecord("s", np.full(60, 1, dtype=np.uint8))  # only CCCC…
        index = QueryIndex(query, 11)
        saturate(index)
        assert len(find_seeds(index, [subject, subject])) == 0

    def test_presence_table_sizing(self):
        for n in (1, 15, 16, 17, 2700, 7490):
            index = QueryIndex(random_bases(np.random.default_rng(n), n + 10), 11)
            slots = index._presence.shape[0]
            assert 16 * index.num_words < slots <= 32 * index.num_words
            assert int(index._presence.sum()) <= index.num_words


def canonical(alignments):
    out = []
    for aln in alignments:
        fields = dict(vars(aln))
        path = fields.pop("path")
        out.append((sorted(fields.items()), None if path is None else path.tobytes()))
    return out


def counts(counters):
    fields = dict(vars(counters))
    fields.pop("elapsed_seconds")
    return fields


class TestEngineAgainstPerSubjectLoop:
    @given(
        seed=st.integers(0, 2**16),
        num_subjects=st.sampled_from([1, 2, 9]),
        strands=st.sampled_from(["plus", "both"]),
        two_hit=st.sampled_from([None, 40]),
        dust=st.booleans(),
        cached=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_alignments_and_counters_match(
        self, seed, num_subjects, strands, two_hit, dust, cached
    ):
        rng = np.random.default_rng(seed)
        homolog = random_bases(rng, 260)
        low_complexity = np.tile(np.array([0, 1], dtype=np.uint8), 40)
        query = SequenceRecord(
            "q",
            np.concatenate(
                [random_bases(rng, 300), homolog, low_complexity, random_bases(rng, 200)]
            ),
        )
        subjects = []
        for i in range(num_subjects):
            body = [random_bases(rng, int(rng.integers(5, 400)))]
            if i % 2 == 0:  # plus-strand copy, a few substitutions
                copy = homolog.copy()
                copy[rng.integers(0, len(copy), 6)] = rng.integers(0, 4, 6)
                body.append(copy)
            if i % 3 == 1:  # minus-strand copy and a low-complexity run
                body += [reverse_complement(homolog[40:220]), low_complexity]
            body.append(random_bases(rng, int(rng.integers(0, 200))))
            subjects.append(SequenceRecord(f"s{i}", np.concatenate(body)))
        database = Database(subjects, name="pooled")
        engine = BlastEngine(BlastParams(two_hit_window=two_hit, dust=dust))
        options = SearchOptions()
        cache = (
            {s.seq_id: sorted_kmers(s.codes, engine.params.k) for s in subjects}
            if cached
            else None
        )
        got = engine.search(
            query, database, options=options, strands=strands, subject_kmer_cache=cache
        )
        want_alignments, want_counters = reference_search(
            engine, query, database, options, strands
        )
        assert canonical(got.alignments) == canonical(want_alignments)
        assert counts(got.counters) == counts(want_counters)
        assert got.counters.subjects_scanned == num_subjects * (
            2 if strands == "both" else 1
        )
        if num_subjects > 1 and not two_hit:
            assert got.alignments  # the planted homology is found


class TestPlaneAttachedStore:
    def test_worker_store_holds_only_views_of_the_plane(self):
        """Pooling gathers needles per task: a plane-attached worker keeps
        nothing but slices of the plane's k-mer segments resident."""
        from repro.core import orion as orion_mod
        from repro.core.fragmenter import fragment_query
        from repro.core.orion import OrionSearch
        from repro.mapreduce import shm
        from repro.sequence.generator import make_database

        if not shm.HAVE_SHARED_MEMORY:  # pragma: no cover - platform
            pytest.skip("no multiprocessing.shared_memory")
        db = make_database(4242, num_sequences=12, mean_length=300, name="viewsdb")
        search = OrionSearch(
            database=db, num_shards=3, fragment_length=None,
            executor="processes", num_workers=1,
        )
        try:
            search._ensure_plane()
            assert search._shm_handle is not None
            worker = pickle.loads(pickle.dumps(search))  # what a pool worker gets
            view = worker._db_view
            assert view is not None
            store = orion_mod._KMER_STORES.setdefault(worker._db_key, {})
            store.clear()
            query = db.records[0].slice(0, 250, seq_id="qview")
            overlap, space = worker.overlap_for_query(query)
            fragment = fragment_query(query, len(query), overlap)[0]
            emitted = []
            for shard in worker.shards:
                emitted += worker._map_fragment_shard(query, fragment, shard, space)
            assert emitted  # the query is a slice of the database
            assert set(store) == {rec.seq_id for rec in db}
            for seq_id, (keys, positions) in store.items():
                want_keys, want_pos = sorted_kmers(db[seq_id].codes, worker.params.k)
                assert np.array_equal(keys, want_keys)
                assert np.array_equal(positions, want_pos)
                assert np.shares_memory(keys, view._keys)
                assert np.shares_memory(positions, view._positions)
                assert not keys.flags.owndata and not positions.flags.owndata
            store.clear()
        finally:
            shm.detach_cached_views()
            search.close()
