"""Seed finding (BLAST phase i) with redundant-seed thinning.

Raw lookup hits are heavily redundant: a run of r consecutive matching bases
produces ``r − k + 1`` seeds on the same diagonal that would all extend to
the same HSP. We keep, per subject and diagonal, only seeds that start a new
run (the previous window on that diagonal did not hit), which preserves every
distinct maximal match while shrinking the extension workload dramatically.
Seeding returns every subject's hits in one pool, each tagged with the
subject that owns it, so thinning and the two-hit filter run once per search.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.blast.hsp import SeedHits
from repro.blast.lookup import QueryIndex, valid_kmers
from repro.sequence.records import SequenceRecord


def find_seeds(
    index: QueryIndex,
    subjects: Sequence[SequenceRecord],
    kmer_cache: Optional[Mapping[str, Tuple[np.ndarray, np.ndarray]]] = None,
) -> SeedHits:
    """Raw k-mer seed hits of the indexed query in every subject, one join.

    The subjects' k-mers are pooled into one needle array — the pre-built
    ``(keys, positions)`` pair of ``kmer_cache`` (subject id →
    :func:`repro.blast.lookup.sorted_kmers`) where it has one, packed from
    the subject's codes otherwise — and go through :meth:`QueryIndex.join`
    together. Returns the pooled hits: ``s_pos`` is local to the subject
    and ``owner`` is the subject's ordinal in ``subjects``, non-decreasing.
    Hits are unthinned and their order within a subject is unspecified:
    :func:`thin_seeds` sorts.
    """
    if index.num_words == 0 or not subjects:
        return SeedHits.empty(index.k)
    keys_parts: List[np.ndarray] = []
    pos_parts: List[np.ndarray] = []
    for subject in subjects:
        entry = kmer_cache.get(subject.seq_id) if kmer_cache is not None else None
        if entry is None:
            entry = valid_kmers(subject.codes, index.k)
        keys_parts.append(entry[0])
        pos_parts.append(entry[1])
    if len(subjects) == 1:  # a one-subject shard joins its plane slices uncopied
        keys, positions = keys_parts[0], pos_parts[0]
    else:
        keys, positions = np.concatenate(keys_parts), np.concatenate(pos_parts)
    needle, q_pos = index.join(keys)
    ends = np.cumsum([part.shape[0] for part in keys_parts])
    owner = np.searchsorted(ends, needle, side="right")
    return SeedHits(q_pos, positions[needle], index.k, owner)


def thin_seeds(hits: SeedHits) -> SeedHits:
    """Collapse runs of consecutive hits along each diagonal to their head.

    A hit (q, s) is redundant when (q−1, s−1) is also a hit of the same
    subject: both lie in one maximal exact match. Sorting by (owner,
    diagonal, q) makes the predecessor check a single vectorized comparison
    against the previous row, and no run crosses from one subject into the
    next.
    """
    if len(hits) <= 1:
        return hits
    diag = hits.diagonals
    order = np.lexsort((hits.q_pos, diag, hits.owner))
    o_sorted = hits.owner[order]
    d_sorted = diag[order]
    q_sorted = hits.q_pos[order]
    keep = np.empty(len(hits), dtype=bool)
    keep[0] = True
    keep[1:] = (
        (o_sorted[1:] != o_sorted[:-1])
        | (d_sorted[1:] != d_sorted[:-1])
        | (q_sorted[1:] != q_sorted[:-1] + 1)
    )
    return hits.take(order[keep])


def two_hit_filter(hits: SeedHits, window: int) -> SeedHits:
    """NCBI's two-hit heuristic: extend only where a diagonal has two hits.

    A seed survives when another seed sits on the *same diagonal of the
    same subject* within ``window`` query positions (ahead or behind,
    non-identical: a pairing partner must satisfy ``0 < Δq <= window``, so
    a zero-distance duplicate of a hit never vouches for it). Isolated
    random hits — the vast majority in low-similarity scans — are
    discarded before the (comparatively expensive) ungapped extension,
    trading a little sensitivity for a large constant-factor speedup,
    exactly as in gapped BLAST [Altschul et al. 1997]. One-hit seeding remains the nucleotide
    default (paper Table I uses classic blastn behaviour).

    Thinned hits (:func:`thin_seeds`) are duplicate-free by construction;
    unthinned hit sets may carry exact ``(q, s)`` duplicates, which pair
    with nothing themselves yet must not mask a genuine partner for their
    copies — duplicates are collapsed to one representative before the
    window check and every copy inherits its representative's verdict.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if len(hits) <= 1:
        return hits.take(np.zeros(len(hits), dtype=bool))
    diag = hits.diagonals
    order = np.lexsort((hits.q_pos, diag, hits.owner))
    o = hits.owner[order]
    d = diag[order]
    q = hits.q_pos[order]
    # Collapse exact duplicates (same owner, diagonal and q ⇒ same hit): a
    # Δq = 0 neighbour is the hit itself, not a second hit, so it neither
    # counts as a partner nor may it sit between a hit and its real
    # partner and break the adjacent-pair check.
    new = np.empty(len(hits), dtype=bool)
    new[0] = True
    new[1:] = (o[1:] != o[:-1]) | (d[1:] != d[:-1]) | (q[1:] != q[:-1])
    rep = np.cumsum(new) - 1
    ou = o[new]
    du = d[new]
    qu = q[new]
    same_prev = np.zeros(len(qu), dtype=bool)
    same_next = np.zeros(len(qu), dtype=bool)
    same_prev[1:] = (ou[1:] == ou[:-1]) & (du[1:] == du[:-1]) & (qu[1:] - qu[:-1] <= window)
    same_next[:-1] = same_prev[1:]
    keep = (same_prev | same_next)[rep]
    return hits.take(np.sort(order[keep]))

