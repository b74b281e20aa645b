"""Bottom-k sketches over k-mer codes, with an exact-below-threshold probe.

The estimator
-------------
A sequence's 2-bit-packed k-mer codes are hashed through a fixed 64-bit
mixer (:func:`hash_codes`, the splitmix64 finalizer), which maps the
distinct k-mer set to what behaves like a uniform sample of ``[0, 2^64)``.
A **bottom-k sketch** keeps the ``size`` smallest hashes; its *threshold*
``T`` is the largest kept hash (or ``2^64 − 1`` when the set had no more
than ``size`` distinct k-mers, in which case the sketch is *complete*).

The key property used everywhere here: the sketch contains **every** hash
of the set that is ``<= T``. Membership below the threshold is therefore
exact, not approximate — given a probe set P, the fraction of
``{p ∈ P : hash(p) <= T}`` found in the sketch is an unbiased estimate of
the containment ``|P ∩ S| / |P|`` of P in the sketched set S, because the
sub-threshold region is a uniform random slice of hash space. The variance
is that of a binomial over the sub-threshold probe count, so
:func:`containment` refuses to judge (returns 1.0 — "cannot rule the shard
out") when fewer than :data:`MIN_PROBE_DEFAULT` probe hashes fall below
the threshold.

Merging: bottom-k sketches are unionable. ``merge_sketches`` takes the
union of member hashes clipped to the *minimum* member threshold — below
that bound every member's membership is exact, hence so is the union's.
This is how :class:`ShardSketchIndex` derives a per-*shard* sketch from
its member sequences' sketches for any ``num_shards``.

Recall bound (Kucherov & Noé's seed-sensitivity view): an alignment of
length ℓ at identity p shares ≈ ``(ℓ − k + 1)·p^k`` k-mers with its
subject, so a fragment of F bases carrying it has true containment at
least ``(ℓ − k + 1)·p^k / F``. Choosing ``prune_threshold`` below that for
the shortest alignment one must keep bounds the recall loss to the
binomial tail of the probe — driven to ~0 by the :data:`MIN_PROBE_DEFAULT`
floor and the benchmark-gated default (:data:`DEFAULT_PRUNE_THRESHOLD`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.blast.lookup import join_sorted, kmer_codes

#: Per-sequence bottom-k sketch size (hashes kept). 256 keeps a whole
#: human-scale database's sketches under a few MiB while giving multi-
#: hundred-probe denominators on typical Orion fragments.
SKETCH_SIZE_DEFAULT = 256

#: The benchmarked default pruning threshold (``benchmarks/bench_pruning.py``
#: gates it: 100% recall of E-value-significant alignments on planted-
#: homology workloads while cutting map tasks substantially). Callers opt
#: in explicitly — ``OrionSearch(prune_threshold=None)`` (the default)
#: never probes.
DEFAULT_PRUNE_THRESHOLD = 0.02

#: Minimum sub-threshold probe count required before a shard may be ruled
#: out. Below it the estimator's variance is too high; the probe returns
#: containment 1.0 ("keep") instead of guessing.
MIN_PROBE_DEFAULT = 16

#: Threshold sentinel marking a *complete* sketch (every distinct k-mer
#: hash of the set is present; membership is exact everywhere).
COMPLETE_THRESHOLD = int(np.iinfo(np.uint64).max)


def hash_codes(keys: np.ndarray) -> np.ndarray:
    """Mix int64 k-mer codes into uniform uint64 hashes (splitmix64 finalizer).

    Deterministic and stateless — the same code always hashes the same —
    so sketches built in different processes (or sessions sharing a plane)
    agree bit-for-bit. Vectorized: three shift-xor-multiply rounds over the
    whole array, wrapping modulo 2^64.

    The mixer is a **bijection** on uint64, so distinct keys always hash to
    distinct values: adding a constant mod 2^64 is invertible, so is
    ``x ^ (x >> s)`` for any ``s >= 1`` (the top ``s`` bits pass through
    unchanged and recover the next ``s``, and so on down), and multiplying
    by an odd constant is invertible mod 2^64. Sketch code therefore never
    deduplicates hashes — only keys.
    """
    x = np.asarray(keys).astype(np.uint64)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def distinct_sorted(sorted_keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order (a new array).

    One ``np.not_equal`` pass over neighbours. numpy's own unique-values
    routine would sort again or, for integers, build a hash table; both
    ignore that the input is already ordered.
    """
    keep = np.ones(sorted_keys.shape[0], dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
    return sorted_keys[keep]


@dataclass(frozen=True)
class KmerSketch:
    """Bottom-k sketch of one k-mer set: sorted hashes + inclusive threshold.

    Invariants (checked by tests, relied on by :func:`containment`):
    ``hashes`` is sorted, duplicate-free, and contains **every** hash of
    the sketched set that is ``<= threshold``; ``threshold`` is
    :data:`COMPLETE_THRESHOLD` iff the sketch is the whole set.
    """

    hashes: np.ndarray
    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {self.threshold}")

    @property
    def num_hashes(self) -> int:
        return int(self.hashes.shape[0])

    @property
    def complete(self) -> bool:
        """Whether this sketch holds the set's entire hashed k-mer content."""
        return self.threshold == COMPLETE_THRESHOLD

    @classmethod
    def from_kmer_keys(cls, keys: np.ndarray, size: int) -> "KmerSketch":
        """Sketch a set of packed k-mer codes (sorted or not, duplicates ok).

        One sort of the keys, a neighbour scan for the distinct ones, then
        a partition for the ``size`` smallest hashes. Hashing is a
        bijection (:func:`hash_codes`), so distinct keys give distinct
        hashes and only the kept ones need sorting.
        """
        if size <= 0:
            raise ValueError(f"sketch size must be positive, got {size}")
        distinct = distinct_sorted(np.sort(np.asarray(keys, dtype=np.int64)))
        hashes = hash_codes(distinct)
        if hashes.shape[0] <= size:
            return cls(hashes=np.sort(hashes), threshold=COMPLETE_THRESHOLD)
        kept = np.sort(np.partition(hashes, size - 1)[:size])
        return cls(hashes=kept, threshold=int(kept[-1]))

    @classmethod
    def from_codes(cls, codes: np.ndarray, k: int, size: int) -> "KmerSketch":
        """Sketch a sequence's valid k-mers straight from its 2-bit codes."""
        packed, valid = kmer_codes(codes, k)
        return cls.from_kmer_keys(packed[valid], size)


def merge_sketches(parts: Sequence[KmerSketch]) -> KmerSketch:
    """The sketch of the union of the sketched sets.

    Valid below ``min(part thresholds)``: each part contains all of its
    set's hashes up to its own threshold, so the union's membership is
    exact up to the smallest one. Entries above that bound are dropped
    (they are not guaranteed complete for the union).
    """
    if not parts:
        return KmerSketch(
            hashes=np.empty(0, dtype=np.uint64), threshold=COMPLETE_THRESHOLD
        )
    threshold = min(p.threshold for p in parts)
    merged = distinct_sorted(np.sort(np.concatenate([p.hashes for p in parts])))
    merged = merged[merged <= np.uint64(threshold)]
    return KmerSketch(hashes=merged, threshold=threshold)


def probe_hashes(codes: np.ndarray, k: int) -> np.ndarray:
    """A fragment's sorted distinct k-mer hashes — the probe side of
    :func:`containment` (build once per fragment, test against every
    shard's sketch)."""
    packed, valid = kmer_codes(codes, k)
    return np.sort(hash_codes(distinct_sorted(np.sort(packed[valid]))))


def containment(probe: np.ndarray, sketch: KmerSketch) -> float:
    """Estimated fraction of the probe's k-mers present in the sketched set.

    ``probe`` is the output of :func:`probe_hashes`. Errs on the side of
    **not pruning**: returns 1.0 when the probe is empty or too few probe
    hashes fall below the sketch threshold to judge
    (:data:`MIN_PROBE_DEFAULT`; a
    complete sketch is exact and judged regardless). A return of 0.0
    against a complete sketch is a certainty, not an estimate — the shard
    shares no k-mer with the probe and cannot seed an alignment.
    """
    if probe.shape[0] == 0:
        return 1.0
    if sketch.complete:
        below = probe
    else:
        below = probe[probe <= np.uint64(sketch.threshold)]
        if below.shape[0] < MIN_PROBE_DEFAULT:
            return 1.0
    if below.shape[0] == 0:
        return 1.0
    if sketch.num_hashes == 0:
        return 0.0
    idx = np.searchsorted(sketch.hashes, below)
    found = sketch.hashes[np.minimum(idx, sketch.num_hashes - 1)] == below
    return float(found.mean())


class ShardSketchIndex:
    """Per-shard sketches plus the vectorized fragment probe.

    Built once per :class:`~repro.core.orion.OrionSearch` (driver side),
    by merging its member sequences' sketches per shard. The index owns
    every array it holds (sketching sorts, merging concatenates), so it
    outlives whatever the k-mer keys were read from. Probing is read-only
    and thread-safe.
    """

    def __init__(self, sketches: List[KmerSketch], k: int) -> None:
        self.sketches = list(sketches)
        self.k = int(k)
        # Every shard's sketch in one hash-sorted (hash, shard) table, so a
        # fragment probes all shards with one join (see probe()).
        hashes = [sk.hashes[sk.hashes <= np.uint64(sk.threshold)] for sk in self.sketches]
        table = np.concatenate(hashes) if hashes else np.empty(0, dtype=np.uint64)
        shards = np.repeat(np.arange(len(hashes)), [h.shape[0] for h in hashes])
        order = np.argsort(table, kind="stable")
        self._table_hashes = table[order]
        self._table_shards = shards[order]
        self._thresholds = np.array(
            [sk.threshold for sk in self.sketches], dtype=np.uint64
        )
        self._complete = np.array([sk.complete for sk in self.sketches], dtype=bool)
        self._empty = np.array(
            [sk.num_hashes == 0 for sk in self.sketches], dtype=bool
        )

    @property
    def num_shards(self) -> int:
        return len(self.sketches)

    @classmethod
    def build(
        cls,
        shards: Sequence[object],
        k: int,
        kmer_cache: Optional[Mapping[str, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> "ShardSketchIndex":
        """Index a sharding (``repro.mpiblast.formatdb.DatabaseShard`` list).

        Each sequence is sketched (:data:`SKETCH_SIZE_DEFAULT` hashes) from
        its ``kmer_cache`` entry's keys when it has one — a ``seq_id ->
        (sorted keys, positions)`` dict, as
        :func:`repro.blast.seeds.find_seeds` takes — and from its codes
        otherwise. Both give the same key set, hence the same sketch.
        """
        sketches: List[KmerSketch] = []
        for shard in shards:
            parts: List[KmerSketch] = []
            for rec in shard.database:  # type: ignore[attr-defined]
                entry = kmer_cache.get(rec.seq_id) if kmer_cache is not None else None
                if entry is not None:
                    parts.append(KmerSketch.from_kmer_keys(entry[0], SKETCH_SIZE_DEFAULT))
                else:
                    parts.append(KmerSketch.from_codes(rec.codes, k, SKETCH_SIZE_DEFAULT))
            sketches.append(merge_sketches(parts))
        return cls(sketches, k)

    def probe(self, codes: np.ndarray) -> np.ndarray:
        """Estimated containment of a fragment in every shard (float64 array).

        Bit-equal to :func:`containment` against each shard's sketch, in one
        pass: the (distinct) probe hashes are joined against the sketch
        table — a table entry is a member of its shard at or below that
        shard's threshold, so each match is one *found* probe hash for the
        entry's shard — and the probe's rank of each threshold is that
        shard's *below* count.
        """
        probe = probe_hashes(codes, self.k)
        out = np.ones(self.num_shards, dtype=np.float64)
        if probe.shape[0] == 0 or self.num_shards == 0:
            return out
        _, shards = join_sorted(probe, probe, self._table_hashes, self._table_shards)
        found = np.bincount(shards, minlength=self.num_shards)
        below = np.searchsorted(probe, self._thresholds, side="right")
        judged = (self._complete | (below >= MIN_PROBE_DEFAULT)) & (below > 0)
        out[judged & self._empty] = 0.0
        ratio = judged & ~self._empty
        out[ratio] = found[ratio] / below[ratio]
        return out


def validate_prune_threshold(value: Optional[float]) -> Optional[float]:
    """Normalize a user-supplied prune threshold (None disables probing)."""
    if value is None:
        return None
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"prune_threshold must be in [0, 1] (a containment fraction), "
            f"got {value}"
        )
    return value
