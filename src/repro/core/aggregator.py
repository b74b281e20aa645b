"""The reduce phase: aggregate one subject's fragment alignments.

Keyed by (database sequence id, strand) — the paper's choice, so reducers
parallelize across database sequences (Section IV-C). Per key:

1. **dedupe** — alignments wholly inside an overlap are reported by both
   neighbouring fragments; identical locations collapse;
2. **cluster** — alignments that are mutually close on both query and
   subject axes form candidate groups for one underlying cross-boundary
   alignment (chains across ≥3 fragments included);
3. **resolve** each cluster holding boundary work — a partial
   (boundary-touching) member, or members found by two fragments — by
   re-running the full BLAST engine on a padded local window around the
   cluster. Inside the window the engine sees the same seeds, anchors and
   thresholds serial BLAST saw, so the resolved alignments are *bitwise
   serial* — including subtle x-drop segmentation behaviour that splicing
   the partial paths together cannot reconstruct (the window is a few kbp,
   so this costs microseconds per boundary). Any other cluster reports its
   members as the map found them;
4. **filter** — the E threshold applies, and partials that fail it are
   discarded (they were only ever merge candidates).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.blast.engine import BlastEngine
from repro.blast.hsp import Alignment
from repro.blast.statistics import SearchSpace
from repro.core.results import FragmentAlignment
from repro.sequence.records import Database, SequenceRecord

#: Window padding (bp) around a cluster for local re-search. Must exceed any
#: x-drop overshoot; extensions cannot gain ground past a true alignment end,
#: so a small constant suffices.
RESEARCH_PAD = 128
#: Two alignments belong to one cluster when their query and subject
#: intervals come within this many bases of each other.
CLUSTER_TOLERANCE = 256


@dataclass
class AggregationStats:
    """Bookkeeping from one reduce key (summed by the caller)."""

    input_alignments: int = 0
    deduped: int = 0
    merged_pairs: int = 0
    clusters_resolved: int = 0
    dropped_partials: int = 0
    reported: int = 0

    def merge(self, other: "AggregationStats") -> None:
        self.input_alignments += other.input_alignments
        self.deduped += other.deduped
        self.merged_pairs += other.merged_pairs
        self.clusters_resolved += other.clusters_resolved
        self.dropped_partials += other.dropped_partials
        self.reported += other.reported


def _dedupe_locations(items: List[FragmentAlignment]) -> Tuple[List[FragmentAlignment], int]:
    """Collapse alignments at identical locations, keeping the best score.

    Partial flags are OR-combined so a merge candidate keeps its eligibility
    even when its duplicate copy was flagged differently.
    """
    by_loc = {}
    for item in items:
        a = item.alignment
        key = (a.q_start, a.q_end, a.s_start, a.s_end)
        prev = by_loc.get(key)
        if prev is None:
            by_loc[key] = item
        else:
            best = item if item.alignment.score > prev.alignment.score else prev
            by_loc[key] = FragmentAlignment(
                alignment=best.alignment,
                fragment_index=best.fragment_index,
                partial_left=item.partial_left or prev.partial_left,
                partial_right=item.partial_right or prev.partial_right,
            )
    kept = sorted(
        by_loc.values(),
        key=lambda i: (i.alignment.q_start, i.alignment.s_start, -i.alignment.score),
    )
    return kept, len(items) - len(kept)


def _near(lo1: int, hi1: int, lo2: int, hi2: int, tol: int) -> bool:
    """Intervals overlap or lie within ``tol`` of each other."""
    return lo1 <= hi2 + tol and lo2 <= hi1 + tol


def _cluster(items: List[FragmentAlignment], tol: int) -> List[List[int]]:
    """Union-find clustering on simultaneous query/subject proximity."""
    n = len(items)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for i in range(n):
        ai = items[i].alignment
        for j in range(i + 1, n):
            aj = items[j].alignment
            if _near(ai.q_start, ai.q_end, aj.q_start, aj.q_end, tol) and _near(
                ai.s_start, ai.s_end, aj.s_start, aj.s_end, tol
            ):
                union(i, j)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # Clusters ordered by their smallest member, explicitly: the root index
    # is union-order dependent, so it must not drive the output order.
    return sorted(groups.values(), key=lambda g: g[0])


def _research_cluster(
    members: List[FragmentAlignment],
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    subject_id: str,
    strand: int,
    query_id: str,
    engine: BlastEngine,
    space: SearchSpace,
) -> List[Alignment]:
    """Resolve one cluster by re-running the engine on a padded window."""
    q_lo = max(0, min(m.alignment.q_start for m in members) - RESEARCH_PAD)
    q_hi = min(int(q_codes.shape[0]), max(m.alignment.q_end for m in members) + RESEARCH_PAD)
    s_lo = max(0, min(m.alignment.s_start for m in members) - RESEARCH_PAD)
    s_hi = min(int(s_codes.shape[0]), max(m.alignment.s_end for m in members) + RESEARCH_PAD)
    core_q_lo = min(m.alignment.q_start for m in members)
    core_q_hi = max(m.alignment.q_end for m in members)

    window_query = SequenceRecord(seq_id="window.query", codes=q_codes[q_lo:q_hi])
    window_db = Database(
        [SequenceRecord(seq_id=subject_id, codes=s_codes[s_lo:s_hi])],
        name="window.db",
    )
    res = engine.search(window_query, window_db, stats_space=space, strands="plus")
    out: List[Alignment] = []
    for aln in res.alignments:
        shifted = replace(
            aln.shifted(q_offset=q_lo, s_offset=s_lo),
            query_id=query_id,
            strand=strand,
        )
        # Keep only alignments touching the cluster's core: anything purely
        # inside the padding is either a duplicate of a singleton elsewhere
        # or a window-edge artefact.
        if shifted.q_end > core_q_lo and shifted.q_start < core_q_hi:
            out.append(shifted)
    return out


def aggregate_subject_alignments(
    items: Sequence[FragmentAlignment],
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    engine: BlastEngine,
    space: SearchSpace,
) -> Tuple[List[Alignment], AggregationStats]:
    """Aggregate all fragment alignments for one (subject, strand) key.

    ``q_codes`` must be in the strand frame the alignments use (the reverse
    complement for minus-strand keys); ``s_codes`` is the subject sequence.
    """
    stats = AggregationStats(input_alignments=len(items))
    if not items:
        return [], stats

    work, stats.deduped = _dedupe_locations(list(items))
    finals = _aggregate_research(work, q_codes, s_codes, engine, space, stats)

    finals.sort(key=Alignment.sort_key)
    stats.reported = len(finals)
    return finals, stats


def _aggregate_research(
    work: List[FragmentAlignment],
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    engine: BlastEngine,
    space: SearchSpace,
    stats: AggregationStats,
) -> List[Alignment]:
    p = engine.params
    finals: List[Alignment] = []
    for idx_group in _cluster(work, CLUSTER_TOLERANCE):
        members = [work[i] for i in idx_group]
        fragments = {m.fragment_index for m in members}
        if len(fragments) == 1 and not any(m.is_partial for m in members):
            # One fragment found every member and none touches its edges: it
            # saw every seed, anchor and extension serial BLAST saw here.
            resolved = [m.alignment for m in members]
        else:
            first = members[0].alignment
            resolved = _research_cluster(
                members, q_codes, s_codes,
                first.subject_id, first.strand, first.query_id,
                engine, space,
            )
            stats.clusters_resolved += 1
            stats.merged_pairs += max(0, len(members) - len(resolved))
            if not resolved:
                stats.dropped_partials += 1
        kept = [a for a in resolved if a.evalue <= p.evalue_threshold]
        stats.dropped_partials += len(resolved) - len(kept)
        finals.extend(kept)
    return finals

