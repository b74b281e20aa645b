"""k-mer packing and the query lookup index (BLAST phase i substrate).

A k-mer over {A,C,G,T} packs into ``2k`` bits of an int64 (k ≤ 31). The
query's k-mers are indexed once (sorted codes + positions, plus a k-mer
presence filter); scanning subjects is then one vectorized table probe and
a sorted join over the few needles that pass it — no Python-level loop
touches individual bases, per the HPC guide's "vectorize the hot loop" rule.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE


def kmer_codes(codes: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pack every k-window of a code array into int64 keys.

    Returns ``(packed, valid)`` where ``packed[i]`` is the 2-bit packing of
    ``codes[i:i+k]`` and ``valid[i]`` is False when the window contains an
    invalid base (``N`` sentinel). Output length is ``len(codes) − k + 1``
    (empty when the sequence is shorter than k).

    Implementation: Horner's rule over k shifted 1-D slices — k in-place
    shift-adds on the output array, O(n·k) adds with O(n) peak memory (no
    (n − k + 1) × k window materialization).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > 31:
        raise ValueError(f"k={k} exceeds the 62-bit packing limit (31)")
    n = codes.shape[0]
    if n < k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    # Invalid sentinel codes (255) would poison the packing; clamp them to 0
    # for arithmetic and mark the affected windows invalid instead.
    bad = codes >= ALPHABET_SIZE
    if bad.any():
        clean = np.where(bad, np.uint8(0), codes).astype(np.int64)
        bad_prefix = np.concatenate(([0], np.cumsum(bad, dtype=np.int64)))
        valid = (bad_prefix[k:] - bad_prefix[:-k]) == 0
    else:
        clean = codes.astype(np.int64)
        valid = np.ones(n - k + 1, dtype=bool)
    m = n - k + 1
    packed = np.zeros(m, dtype=np.int64)
    for j in range(k):  # first base lands in the most significant 2 bits
        packed <<= 2
        packed += clean[j : j + m]
    return packed, valid


def valid_kmers(codes: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(keys, positions) of a sequence's valid k-mers, in position order."""
    packed, valid = kmer_codes(codes, k)
    positions = np.flatnonzero(valid).astype(np.int64)
    return packed[positions], positions


def sorted_kmers(codes: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted (keys, positions) of a sequence's valid k-mers.

    The reusable half of an index: build once per database sequence, feed
    to many query fragments' joins as pre-packed needles (see
    :meth:`QueryIndex.join`); a query's own index is the same pair.
    """
    keys, positions = valid_kmers(codes, k)
    order = np.argsort(keys, kind="stable")
    return keys[order], positions[order]


def count_valid_kmers(codes: np.ndarray, k: int) -> int:
    """How many valid k-mers :func:`sorted_kmers` would index for ``codes``.

    Counting needs only the invalid-base prefix sums, not the packing, so a
    sizing pass over a whole database (the shared-memory plane allocates
    its k-mer segments exactly — see :mod:`repro.mapreduce.shm`) costs a
    fraction of building the indexes themselves.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > 31:
        raise ValueError(f"k={k} exceeds the 62-bit packing limit (31)")
    n = codes.shape[0]
    if n < k:
        return 0
    bad = codes >= ALPHABET_SIZE
    if not bad.any():
        return n - k + 1
    bad_prefix = np.concatenate(([0], np.cumsum(bad, dtype=np.int64)))
    return int(((bad_prefix[k:] - bad_prefix[:-k]) == 0).sum())


def sorted_kmers_into(
    codes: np.ndarray, k: int, keys_out: np.ndarray, pos_out: np.ndarray
) -> None:
    """Build one sequence's sorted k-mer index into caller-provided buffers.

    ``keys_out``/``pos_out`` must be int64 arrays of exactly
    ``count_valid_kmers(codes, k)`` entries — typically slices of a
    shared-memory segment, so a whole database's indexes can be built one
    sequence at a time with peak *extra* memory bounded by the largest
    sequence, not the database.
    """
    keys, positions = sorted_kmers(codes, k)
    if keys_out.shape != keys.shape or pos_out.shape != positions.shape:
        raise ValueError(
            f"output buffers have {keys_out.shape[0]}/{pos_out.shape[0]} "
            f"entries; sequence indexes {keys.shape[0]} valid k-mers "
            f"(size with count_valid_kmers)"
        )
    keys_out[:] = keys
    pos_out[:] = positions


def join_sorted(
    needle_keys: np.ndarray,
    needle_pos: np.ndarray,
    hay_keys: np.ndarray,
    hay_pos: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (needle position, haystack position) pairs with equal keys.

    ``hay_keys`` must be sorted (``needle_keys`` need not be). The join is
    two ``searchsorted`` probes over the needles plus a vectorized range
    expansion, so putting the *smaller* side in the needles minimizes work.
    """
    if needle_keys.size == 0 or hay_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    left = np.searchsorted(hay_keys, needle_keys, side="left")
    right = np.searchsorted(hay_keys, needle_keys, side="right")
    counts = right - left
    hit = counts > 0
    if not hit.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    starts = left[hit]
    reps = counts[hit]
    total = int(reps.sum())
    seg_offsets = np.repeat(np.cumsum(reps) - reps, reps)
    flat = np.arange(total, dtype=np.int64) - seg_offsets + np.repeat(starts, reps)
    return np.repeat(needle_pos[hit], reps), hay_pos[flat]


#: Multiplier of the presence filter's multiplicative hash (2^64 / golden
#: ratio, odd): the product's top bits depend on every bit of the packed
#: k-mer, so neighbouring codes spread over the whole table.
_PRESENCE_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _presence_slots(keys: np.ndarray, shift: np.uint64) -> np.ndarray:
    """Presence-table slot of each packed k-mer: top ``64 - shift`` bits of
    ``key * _PRESENCE_MULTIPLIER`` (mod 2^64), as int64 index values."""
    slots = keys.view(np.uint64) * _PRESENCE_MULTIPLIER
    slots >>= shift
    return slots.view(np.int64)


class QueryIndex:
    """Sorted k-mer index over one query sequence, behind a presence filter.

    Build once per query (or per Orion fragment), probe with many subjects.
    :meth:`join` returns every (needle, query position) pair whose k-mers
    match exactly — BLAST phase i for nucleotides, where only exact word
    matches seed (paper Section II-B, footnote 2). The subject side is
    always the needles, whatever its size: needles first pass a ``2^b``-
    entry boolean table (``b = bit_length(16 * num_words)``, so at most one
    slot in 16 is set) marking the slots of this index's k-mers, and only
    the survivors — every real match plus a few percent of false positives
    — pay the two ``searchsorted`` probes of :func:`join_sorted`, which is
    exact and drops the false positives.
    """

    def __init__(self, query_codes: np.ndarray, k: int) -> None:
        self.k = int(k)
        self.query_length = int(np.asarray(query_codes).shape[0])
        self._sorted_keys, self._sorted_positions = sorted_kmers(query_codes, k)
        bits = (16 * self.num_words).bit_length()
        self._presence_shift = np.uint64(64 - bits)
        self._presence = np.zeros(1 << bits, dtype=bool)
        self._presence[_presence_slots(self._sorted_keys, self._presence_shift)] = True

    @property
    def num_words(self) -> int:
        """Number of indexed (valid) query k-mers."""
        return int(self._sorted_keys.shape[0])

    def join(self, needle_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All exact matches of packed needle k-mers against this index.

        Returns ``(needle, q_pos)`` int64 arrays of equal length — indexes
        into ``needle_keys`` (non-decreasing) and the matching query
        positions. ``needle_keys`` is any int64 array of valid packed
        k-mers, in any order: one subject's, or a whole shard's pooled.
        """
        if self.num_words == 0 or needle_keys.shape[0] == 0:
            # (An empty index has a one-slot table and a 64-bit shift: it
            # must never hash a needle.)
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        survivors = np.flatnonzero(
            self._presence[_presence_slots(needle_keys, self._presence_shift)]
        )
        return join_sorted(
            needle_keys[survivors], survivors,
            self._sorted_keys, self._sorted_positions,
        )
