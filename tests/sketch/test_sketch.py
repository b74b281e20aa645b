"""Unit tests for repro.sketch: hashing, sketch invariants, containment.

The estimator's correctness hangs on one structural property — a bottom-k
sketch contains *every* set hash at or below its threshold — so these
tests check the invariants directly (sortedness, exactness below the
threshold, merge = union clipped to the min member threshold) rather than
sampling statistical behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.lookup import kmer_codes
from repro.sequence.alphabet import random_bases
from repro.sketch import (
    COMPLETE_THRESHOLD,
    KmerSketch,
    ShardSketchIndex,
    containment,
    hash_codes,
    merge_sketches,
    probe_hashes,
    validate_prune_threshold,
)

K = 11


def rand_codes(seed, n):
    return random_bases(np.random.default_rng(seed), n)


# --------------------------------------------------------------------------- #
# hashing
# --------------------------------------------------------------------------- #


class TestHashCodes:
    def test_deterministic(self):
        keys = np.arange(1000, dtype=np.int64)
        assert np.array_equal(hash_codes(keys), hash_codes(keys.copy()))

    def test_injective_on_small_domain(self):
        """splitmix64 is a bijection on uint64: no collisions, ever."""
        keys = np.arange(100_000, dtype=np.int64)
        assert np.unique(hash_codes(keys)).shape[0] == keys.shape[0]

    def test_uniform_ish(self):
        """Mean of hashed consecutive ints lands near mid-range (sanity)."""
        h = hash_codes(np.arange(10_000, dtype=np.int64)).astype(np.float64)
        mid = 2.0**63
        assert abs(h.mean() - mid) < 0.05 * 2.0**64

    def test_dtype(self):
        assert hash_codes(np.array([0], dtype=np.int64)).dtype == np.uint64


# --------------------------------------------------------------------------- #
# sketch construction
# --------------------------------------------------------------------------- #


class TestKmerSketch:
    def test_small_set_is_complete(self):
        keys = np.arange(100, dtype=np.int64)
        sk = KmerSketch.from_kmer_keys(keys, size=256)
        assert sk.complete
        assert sk.threshold == COMPLETE_THRESHOLD
        assert sk.num_hashes == 100

    def test_large_set_truncates_to_size(self):
        keys = np.arange(10_000, dtype=np.int64)
        sk = KmerSketch.from_kmer_keys(keys, size=256)
        assert not sk.complete
        assert sk.num_hashes == 256
        assert sk.threshold == int(sk.hashes[-1])

    def test_hashes_sorted_and_unique(self):
        sk = KmerSketch.from_kmer_keys(np.arange(5000, dtype=np.int64), 128)
        assert np.all(np.diff(sk.hashes.astype(np.uint64)) > 0)

    def test_exact_below_threshold(self):
        """The load-bearing invariant: every set hash <= T is in the sketch."""
        keys = np.arange(5000, dtype=np.int64)
        sk = KmerSketch.from_kmer_keys(keys, size=64)
        all_hashes = np.sort(hash_codes(keys))
        below = all_hashes[all_hashes <= np.uint64(sk.threshold)]
        assert np.array_equal(sk.hashes, below)

    def test_duplicates_ignored(self):
        keys = np.arange(1000, dtype=np.int64)
        dup = np.concatenate([keys, keys, keys])
        a = KmerSketch.from_kmer_keys(keys, 128)
        b = KmerSketch.from_kmer_keys(dup, 128)
        assert np.array_equal(a.hashes, b.hashes)
        assert a.threshold == b.threshold

    def test_from_codes_matches_from_keys(self):
        codes = rand_codes(3, 2000)
        packed, valid = kmer_codes(codes, K)
        a = KmerSketch.from_codes(codes, K, 128)
        b = KmerSketch.from_kmer_keys(packed[valid], 128)
        assert np.array_equal(a.hashes, b.hashes)
        assert a.threshold == b.threshold

    def test_empty_set(self):
        sk = KmerSketch.from_kmer_keys(np.empty(0, dtype=np.int64), 16)
        assert sk.complete
        assert sk.num_hashes == 0

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            KmerSketch.from_kmer_keys(np.arange(5, dtype=np.int64), 0)


# --------------------------------------------------------------------------- #
# merging
# --------------------------------------------------------------------------- #


class TestMergeSketches:
    def test_merge_matches_direct_union_sketch(self):
        """Merging per-part sketches == sketching the union, below the
        merged threshold (the property the per-shard derivation relies on)."""
        a_keys = np.arange(0, 6000, dtype=np.int64)
        b_keys = np.arange(3000, 9000, dtype=np.int64)
        merged = merge_sketches(
            [
                KmerSketch.from_kmer_keys(a_keys, 128),
                KmerSketch.from_kmer_keys(b_keys, 128),
            ]
        )
        union_hashes = np.sort(
            hash_codes(np.unique(np.concatenate([a_keys, b_keys])))
        )
        expect = union_hashes[union_hashes <= np.uint64(merged.threshold)]
        assert np.array_equal(merged.hashes, expect)

    def test_merge_threshold_is_min(self):
        big = KmerSketch.from_kmer_keys(np.arange(50_000, dtype=np.int64), 64)
        small = KmerSketch.from_kmer_keys(np.arange(10, dtype=np.int64), 64)
        merged = merge_sketches([big, small])
        assert merged.threshold == big.threshold

    def test_merge_of_complete_parts_is_complete(self):
        parts = [
            KmerSketch.from_kmer_keys(np.arange(i, i + 50, dtype=np.int64), 256)
            for i in (0, 40, 90)
        ]
        merged = merge_sketches(parts)
        assert merged.complete

    def test_merge_empty_list(self):
        merged = merge_sketches([])
        assert merged.complete
        assert merged.num_hashes == 0

    def test_merge_copies(self):
        """Merged arrays must not alias inputs (shared-plane teardown)."""
        part = KmerSketch.from_kmer_keys(np.arange(5000, dtype=np.int64), 64)
        merged = merge_sketches([part])
        assert not np.shares_memory(merged.hashes, part.hashes)


# --------------------------------------------------------------------------- #
# containment
# --------------------------------------------------------------------------- #


class TestContainment:
    def test_subset_of_complete_sketch_is_one(self):
        codes = rand_codes(5, 3000)
        sk = KmerSketch.from_codes(codes, K, 1_000_000)  # complete
        assert sk.complete
        probe = probe_hashes(codes[500:1500], K)
        assert containment(probe, sk) == 1.0

    def test_disjoint_complete_sketch_is_zero(self):
        """Zero against a complete sketch is a certainty, not an estimate."""
        sk = KmerSketch.from_kmer_keys(np.arange(100, dtype=np.int64), 256)
        probe = np.sort(hash_codes(np.arange(1000, 1100, dtype=np.int64)))
        assert containment(probe, sk) == 0.0

    def test_empty_probe_keeps(self):
        sk = KmerSketch.from_kmer_keys(np.arange(100, dtype=np.int64), 256)
        assert containment(np.empty(0, dtype=np.uint64), sk) == 1.0

    def test_empty_complete_sketch_vs_probe_is_zero(self):
        """A shard of sequences shorter than k sketches to nothing; any
        non-empty probe is then certainly absent."""
        sk = KmerSketch.from_kmer_keys(np.empty(0, dtype=np.int64), 16)
        probe = np.sort(hash_codes(np.arange(50, dtype=np.int64)))
        assert containment(probe, sk) == 0.0

    def test_min_probe_floor_refuses_to_prune(self):
        """Too few sub-threshold probe hashes → 1.0 (cannot rule out)."""
        sk = KmerSketch.from_kmer_keys(np.arange(100_000, dtype=np.int64), 8)
        # A tiny disjoint probe: nearly all its hashes exceed the (small)
        # sketch threshold, so the denominator misses MIN_PROBE_DEFAULT.
        probe = np.sort(
            hash_codes(np.arange(1_000_000, 1_000_020, dtype=np.int64))
        )
        assert containment(probe, sk) == 1.0

    def test_estimate_tracks_true_containment(self):
        """Half-overlapping key sets estimate containment near 0.5."""
        shared = np.arange(0, 20_000, dtype=np.int64)
        only_probe = np.arange(50_000, 70_000, dtype=np.int64)
        sk = KmerSketch.from_kmer_keys(
            np.concatenate([shared, np.arange(100_000, 120_000, dtype=np.int64)]),
            512,
        )
        probe = np.sort(hash_codes(np.concatenate([shared, only_probe])))
        est = containment(probe, sk)
        assert 0.3 < est < 0.7


# --------------------------------------------------------------------------- #
# shard index + validation helpers
# --------------------------------------------------------------------------- #


class TestShardSketchIndex:
    def test_probe_identifies_the_homologous_shard(self):
        from repro.mpiblast.formatdb import shard_database
        from repro.sequence.generator import make_database

        db = make_database(9, num_sequences=8, mean_length=500)
        shards = shard_database(db, 4)
        index = ShardSketchIndex.build(shards, K)
        assert index.num_shards == 4
        # Probe with an exact slice of one subject: its shard must score
        # (near) 1.0 and strictly dominate the unrelated shards.
        target = next(iter(db))
        home = next(
            s.index
            for s in shards
            if any(r.seq_id == target.seq_id for r in s.database)
        )
        cont = index.probe(target.codes[50:350])
        assert cont.shape == (4,)
        assert cont[home] == max(cont)
        assert cont[home] > 0.9

    @pytest.mark.parametrize("strands", ["plus", "both"])
    def test_plane_leased_matches_serial(self, strands):
        """A search that leased the plane sketches from the plane's k-mer
        keys, a serial one from the codes; pruning decisions may not
        depend on which, so the probe tables must be byte-identical."""
        from repro.core.orion import OrionSearch
        from repro.sequence.generator import make_database

        db = make_database(10, num_sequences=6, mean_length=400)
        tables = []
        for executor in ("serial", "processes"):
            with OrionSearch(
                db, num_shards=3, executor=executor, num_workers=1,
                strands=strands, prune_threshold=0.02,
            ) as search:
                index = search._ensure_sketch_index()
                assert (search._shm_handle is not None) == (executor == "processes")
                tables.append(
                    [a.tobytes() for a in
                     (index._table_hashes, index._table_shards, index._thresholds)]
                )
        assert tables[0] == tables[1]

    @given(
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.sampled_from([0, 1, 8, 40, 256]), min_size=1, max_size=6),
        probe_len=st.sampled_from([0, 5, 30, 200, 900]),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_pass_probe_is_bit_equal_to_scalar_containment(
        self, seed, sizes, probe_len
    ):
        """``probe`` answers every shard from one table lookup; the scalar
        :func:`containment` is the reference, to the last float bit. Shards
        mix empty, complete and truncated sketches (with overlapping key
        sets, so one hash sits in several shards); the probe overlaps them."""
        rng = np.random.default_rng(seed)
        base = random_bases(rng, 1500)

        def piece():
            lo = int(rng.integers(0, 1400))
            return base[lo : lo + int(rng.integers(0, 300))]

        sketches = []
        for size in sizes:
            if size == 0:
                sketches.append(merge_sketches([]))  # empty and complete
            else:
                member = np.concatenate([piece(), random_bases(rng, 60), piece()])
                sketches.append(KmerSketch.from_codes(member, K, size))
        # A truncated sketch whose threshold admits nothing it holds.
        sketches.append(KmerSketch(hashes=np.empty(0, dtype=np.uint64), threshold=2**40))
        index = ShardSketchIndex(sketches, K)
        lo = int(rng.integers(0, 600))
        codes = base[lo : lo + probe_len]
        got = index.probe(codes)
        probe = probe_hashes(codes, K)
        want = np.array([containment(probe, sk) for sk in sketches], dtype=np.float64)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("min_probe", [0, 1, 16, 64])
    def test_probe_honours_the_min_probe_constant(self, min_probe, monkeypatch):
        """``probe`` and :func:`containment` read one floor, the module's
        ``MIN_PROBE_DEFAULT``: patched, both move together, bit for bit."""
        from repro.mpiblast.formatdb import shard_database
        from repro.sequence.generator import make_database
        from repro.sketch import minhash

        monkeypatch.setattr(minhash, "MIN_PROBE_DEFAULT", min_probe)
        db = make_database(13, num_sequences=24, mean_length=700)
        index = ShardSketchIndex.build(shard_database(db, 6), K)
        for rec in list(db)[:4]:
            for frag in (rec.codes[:40], rec.codes[100:600]):
                want = [containment(probe_hashes(frag, K), sk) for sk in index.sketches]
                assert index.probe(frag).tolist() == want

    def test_one_pass_probe_on_real_shards(self):
        from repro.mpiblast.formatdb import shard_database
        from repro.sequence.generator import make_database

        db = make_database(12, num_sequences=40, mean_length=900)
        index = ShardSketchIndex.build(shard_database(db, 8), K)
        for rec in list(db)[:6]:
            frag = rec.codes[100:700]
            want = [containment(probe_hashes(frag, K), sk) for sk in index.sketches]
            assert index.probe(frag).tolist() == want


class TestValidation:
    @pytest.mark.parametrize("value", [None, 0.0, 0.5, 1.0, 0])
    def test_accepts(self, value):
        out = validate_prune_threshold(value)
        assert out is None if value is None else out == float(value)

    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="prune_threshold"):
            validate_prune_threshold(value)
