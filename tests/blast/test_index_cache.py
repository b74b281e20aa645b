"""Tests for the per-process QueryIndex reuse in ``BlastEngine.search``."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro.blast.engine as engine_mod
from repro.blast.engine import BlastEngine
from repro.blast.lookup import QueryIndex
from repro.blast.params import BlastParams
from repro.core.orion import OrionSearch
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.records import Database, SequenceRecord
from tests.properties.test_executor_props import canonical


@pytest.fixture(autouse=True)
def cold_cache():
    engine_mod._QUERY_INDEXES.clear()
    yield
    engine_mod._QUERY_INDEXES.clear()


@pytest.fixture
def count_builds(monkeypatch):
    """Count constructions through the module global the engine calls."""
    built = []

    class Counting(QueryIndex):
        def __init__(self, codes, k):
            built.append((k, np.asarray(codes).tobytes()))
            super().__init__(codes, k)

    monkeypatch.setattr(engine_mod, "QueryIndex", Counting)
    return built


@pytest.fixture(scope="module")
def db():
    return make_database(seed=31, num_sequences=6, mean_length=3000)


@pytest.fixture(scope="module")
def query(db):
    query, _ = make_query_with_homologies(
        seed=32, length=6000, database=db,
        homologies=[HomologySpec(length=500), HomologySpec(length=300)],
    )
    # A low-complexity run, so DUST masks something and the masked codes
    # (not the raw ones) are what must key the cache.
    codes = query.codes.copy()
    codes[1000:1200] = 0
    return SequenceRecord(seq_id=query.seq_id, codes=codes)


def _comparable(result):
    counters = dataclasses.asdict(result.counters)
    counters.pop("elapsed_seconds")
    return canonical(result.alignments), counters, result.ungapped_threshold


@pytest.mark.parametrize("dust", [False, True])
@pytest.mark.parametrize("strands", ["plus", "both"])
def test_warm_search_equals_cold_search(db, query, strands, dust, count_builds):
    engine = BlastEngine(BlastParams(dust=dust))
    cold = engine.search(query, db, strands=strands)
    frames = 2 if strands == "both" else 1
    assert len(count_builds) == frames
    warm = engine.search(query, db, strands=strands)
    assert len(count_builds) == frames  # every frame came from the cache
    assert _comparable(warm) == _comparable(cold)
    assert cold.alignments  # the comparison is not vacuous

    engine_mod._QUERY_INDEXES.clear()
    again = engine.search(query, db, strands=strands)
    assert _comparable(again) == _comparable(cold)


def test_dust_and_k_key_the_cache_separately(db, query, count_builds):
    BlastEngine(BlastParams(dust=False)).search(query, db)
    BlastEngine(BlastParams(dust=True)).search(query, db)
    BlastEngine(BlastParams(dust=False, k=9)).search(query, db)
    assert len(count_builds) == 3
    assert len(set(count_builds)) == 3


def test_cache_stays_within_its_bound(db):
    engine = BlastEngine()
    limit = engine_mod._QUERY_INDEX_LIMIT
    rng = np.random.default_rng(5)
    small = Database([db.records[0]])
    for i in range(200):
        codes = rng.integers(0, 4, size=300, dtype=np.uint8)
        engine.search(SequenceRecord(seq_id=f"q{i}", codes=codes), small, strands="both")
        assert len(engine_mod._QUERY_INDEXES) <= limit
    assert len(engine_mod._QUERY_INDEXES) == limit


def test_long_query_builds_one_index_per_fragment_and_strand(db, count_builds):
    query, _ = make_query_with_homologies(
        seed=33, length=12_000, database=db, homologies=[HomologySpec(length=400)]
    )
    search = OrionSearch(
        db, num_shards=3, fragment_length=3000, strands="both", executor="serial"
    )
    plan = search.prepare(query)
    assert len(plan.splits) == 3 * len(plan.fragments) >= 12
    for split in plan.splits:
        list(plan.job.mapper(split))
    # One per (fragment, strand) — not one per (fragment, strand, shard).
    assert len(count_builds) == 2 * len(plan.fragments)
    assert len(set(count_builds)) == len(count_builds)


def test_concurrent_lookups_keep_the_bound_and_the_right_index():
    """More threads than cores hammering a cache smaller than their working
    set: the bound holds throughout and nobody gets another key's index."""
    limit = engine_mod._QUERY_INDEX_LIMIT
    rng = np.random.default_rng(9)
    fragments = [
        rng.integers(0, 4, size=200 + i, dtype=np.uint8) for i in range(3 * limit)
    ]
    errors = []

    def worker(seed):
        order = np.random.default_rng(seed).integers(0, len(fragments), size=300)
        for j in order:
            index = engine_mod._query_index(fragments[j], 11)
            if index.query_length != fragments[j].shape[0]:
                errors.append((j, index.query_length))
            if len(engine_mod._QUERY_INDEXES) > limit:
                errors.append(("bound", len(engine_mod._QUERY_INDEXES)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
