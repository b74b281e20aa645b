"""Sort-and-scan sketches are bit-identical to the ``np.unique`` formulation.

:mod:`repro.sketch` builds, merges and probes bottom-k sketches with one
sort and linear neighbour scans. Shard pruning decisions hang on those
bytes, so the reference functions below keep the previous ``np.unique``
formulation verbatim and every property compares ``tobytes()`` and the
threshold against them. Dropping the hash-side deduplication rests on
:func:`hash_codes` being a bijection; the explicit inverse here proves it
on the values tested.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.lookup import kmer_codes
from repro.mapreduce.shm import PlaneRegistry, attach_segment
from repro.sequence.alphabet import UNKNOWN_CODE, random_bases
from repro.sequence.generator import make_database
from repro.sequence.records import Database, SequenceRecord
from repro.sketch import (
    COMPLETE_THRESHOLD,
    KmerSketch,
    hash_codes,
    merge_sketches,
    probe_hashes,
)
from repro.sketch.minhash import distinct_sorted

KS = [1, 5, 11, 16, 28, 31]
SIZES = [1, 16, 256, 100_000]  # the last exceeds every distinct count here


# --------------------------------------------------------------------------- #
# reference formulations (np.unique on keys and on hashes)
# --------------------------------------------------------------------------- #


def ref_from_kmer_keys(keys, size):
    distinct = np.unique(np.asarray(keys, dtype=np.int64))
    hashes = np.unique(np.sort(hash_codes(distinct)))
    if hashes.shape[0] <= size:
        return hashes, COMPLETE_THRESHOLD
    kept = hashes[:size]
    return kept, int(kept[-1])


def ref_from_codes(codes, k, size):
    packed, valid = kmer_codes(codes, k)
    return ref_from_kmer_keys(packed[valid], size)


def ref_merge(parts):
    if not parts:
        return np.empty(0, dtype=np.uint64), COMPLETE_THRESHOLD
    threshold = min(p.threshold for p in parts)
    merged = np.unique(np.concatenate([p.hashes for p in parts]))
    return merged[merged <= np.uint64(threshold)], threshold


def ref_probe(codes, k):
    packed, valid = kmer_codes(codes, k)
    return np.sort(hash_codes(np.unique(packed[valid])))


def assert_same(sketch, ref):
    hashes, threshold = ref
    assert sketch.hashes.dtype == hashes.dtype == np.uint64
    assert sketch.hashes.tobytes() == hashes.tobytes()
    assert sketch.threshold == threshold


def codes_with_ns(rng, length, n_fraction):
    codes = random_bases(rng, length)
    codes[rng.random(length) < n_fraction] = UNKNOWN_CODE
    return codes


# --------------------------------------------------------------------------- #
# bit identity
# --------------------------------------------------------------------------- #


class TestDistinctSorted:
    @given(st.lists(st.integers(-50, 50), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_unique(self, values):
        arr = np.sort(np.array(values, dtype=np.int64))
        got = distinct_sorted(arr)
        assert got.tobytes() == np.unique(arr).tobytes()

    def test_returns_a_copy(self):
        arr = np.arange(10, dtype=np.uint64)
        assert not np.shares_memory(distinct_sorted(arr), arr)


class TestBitIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from(KS),
        length=st.one_of(st.integers(0, 40), st.integers(40, 3000)),
        n_fraction=st.sampled_from([0.0, 0.01, 0.2]),
        size=st.sampled_from(SIZES),
    )
    @settings(max_examples=150, deadline=None)
    def test_from_codes_and_probe(self, seed, k, length, n_fraction, size):
        """N codes, sequences shorter than k and empty inputs included."""
        codes = codes_with_ns(np.random.default_rng(seed), length, n_fraction)
        assert_same(KmerSketch.from_codes(codes, k, size), ref_from_codes(codes, k, size))
        probe = probe_hashes(codes, k)
        assert probe.tobytes() == ref_probe(codes, k).tobytes()

    @given(
        keys=st.one_of(
            st.lists(st.integers(0, 30), max_size=400),  # duplicate-heavy
            st.lists(st.integers(0, 2**62 - 1), max_size=400),
        ),
        size=st.sampled_from(SIZES),
        presort=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_from_kmer_keys(self, keys, size, presort):
        arr = np.array(keys, dtype=np.int64)
        if presort:
            arr = np.sort(arr)
        assert_same(KmerSketch.from_kmer_keys(arr, size), ref_from_kmer_keys(arr, size))

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from(KS),
        sizes=st.lists(st.sampled_from(SIZES), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge(self, seed, k, sizes):
        """Overlapping members, mixed complete/truncated, and no members."""
        rng = np.random.default_rng(seed)
        base = codes_with_ns(rng, 2000, 0.01)
        parts = []
        for size in sizes:
            lo = int(rng.integers(0, 2000))
            piece = base[lo : lo + int(rng.integers(0, 1500))]
            parts.append(KmerSketch.from_codes(piece, k, size))
        merged = merge_sketches(parts)
        assert_same(merged, ref_merge(parts))
        assert not any(np.shares_memory(merged.hashes, p.hashes) for p in parts)


# --------------------------------------------------------------------------- #
# the bijection
# --------------------------------------------------------------------------- #


def _unxorshift(y, s):
    """Invert ``x ^ (x >> s)``: each pass recovers ``s`` more top bits."""
    x = y.copy()
    for _ in range(64 // s + 1):
        x = y ^ (x >> np.uint64(s))
    return x


def splitmix64_inverse(h):
    """The explicit inverse of :func:`hash_codes` (odd multipliers invert
    mod 2^64; the additive constant subtracts)."""
    x = _unxorshift(np.asarray(h, dtype=np.uint64), 31)
    x = _unxorshift(x * np.uint64(pow(0x94D049BB133111EB, -1, 2**64)), 27)
    x = _unxorshift(x * np.uint64(pow(0xBF58476D1CE4E5B9, -1, 2**64)), 30)
    return x - np.uint64(0x9E3779B97F4A7C15)


class TestBijection:
    EDGES = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)

    def test_round_trip_edges(self):
        assert np.array_equal(splitmix64_inverse(hash_codes(self.EDGES)), self.EDGES)
        assert np.array_equal(hash_codes(splitmix64_inverse(self.EDGES)), self.EDGES)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, seed):
        x = np.random.default_rng(seed).integers(
            0, 2**64, size=1000, dtype=np.uint64, endpoint=False
        )
        assert np.array_equal(splitmix64_inverse(hash_codes(x)), x)
        assert np.array_equal(hash_codes(splitmix64_inverse(x)), x)


# --------------------------------------------------------------------------- #
# golden plane: sketch segment bytes recorded before the sort-and-scan build
# --------------------------------------------------------------------------- #


def golden_database():
    """Random subjects plus an N-run subject, one shorter than every k
    above 7, and a low-complexity repeat (few distinct k-mers)."""
    base = make_database(2027, num_sequences=10, mean_length=3000, name="golden")
    rng = np.random.default_rng(2027)
    with_n = random_bases(rng, 2500)
    with_n[100:140] = UNKNOWN_CODE
    with_n[[900, 1500, 1501]] = UNKNOWN_CODE
    extra = [
        SequenceRecord("with_n", with_n),
        SequenceRecord("short", random_bases(rng, 7)),
        SequenceRecord("low_complexity", np.tile(np.array([0, 1], dtype=np.uint8), 2000)),
    ]
    return Database(list(base) + extra, name="golden")


#: (k, sketch_size) -> SHA-256 of (sketch segment bytes, repr(sketch_offsets),
#: repr(sketch_thresholds)), as published by the ``np.unique`` build.
GOLDEN = {
    (11, 256): (
        "c6a51a0be38cba62b7a150007aa576568790fb1723f8bb6ebe7c37dd51e06ec1",
        "e2d058aec15e1b8c5268939f394af19c402c951cabf2d3559d80ce7a31c685d6",
        "368457f2ef54fd9220c397944a10fb9ad2875167a459a459936117c9c98cd2a1",
    ),
    (28, 64): (
        "49b2e8866d32de116ffd36f404a9128782756152989b8cb6228a9a50ecb817c3",
        "4b5ad1881b1656d37b10b9c72b73bbd3971f821bc12af092f971460b61d54952",
        "9ee2d6ca4a5a75e665bc3470b20c3042503546346edec9ef75c0ea58071aad84",
    ),
    (5, 16): (
        "4a1f800c36ed9375c7d20e86e904164e5b35f900fc0ce7c5875211b43f6a2343",
        "6f51b6b8b96f8b9d2f959f179fd04719a99d11309d4aef84e45f1d1487760261",
        "b4c152d6599e55cc86cba0986f560109f1e7756c20418753665b158026e7d89a",
    ),
}


def test_golden_plane_sketches():
    db = golden_database()
    for (k, size), want in GOLDEN.items():
        with PlaneRegistry.attach_or_create(db, k, sketch_size=size) as lease:
            h = lease.handle
            seg = attach_segment(h.sketch_segment)
            try:
                raw = bytes(seg.buf[: h.total_sketch_hashes * 8])
            finally:
                seg.close()
            got = (
                hashlib.sha256(raw).hexdigest(),
                hashlib.sha256(repr(h.sketch_offsets).encode()).hexdigest(),
                hashlib.sha256(repr(h.sketch_thresholds).encode()).hexdigest(),
            )
        assert got == want, (k, size)
