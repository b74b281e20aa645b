"""The reduce phase: aggregate one subject's fragment alignments.

Keyed by (database sequence id, strand) — the paper's choice, so reducers
parallelize across database sequences (Section IV-C). Per key:

1. **dedupe** — alignments wholly inside an overlap are reported by both
   neighbouring fragments; identical locations collapse;
2. **cluster** — alignments that are mutually close on both query and
   subject axes form candidate groups for one underlying cross-boundary
   alignment (chains across ≥3 fragments included);
3. **resolve** each cluster holding boundary work — a partial
   (boundary-touching) member, or members found by two fragments; any
   other cluster reports its members as the map found them:

   * ``mode="research"`` (default): re-run the full BLAST engine on a padded
     local window around the cluster. Inside the window the engine sees the
     same seeds, anchors and thresholds serial BLAST saw, so the resolved
     alignments are *bitwise serial* — including subtle x-drop segmentation
     behaviour that pure path splicing cannot reconstruct (the window is a
     few kbp, so this costs microseconds per boundary);
   * ``mode="splice"``: the paper's literal mechanism — splice/bridge merge
     (:func:`repro.core.merge.try_merge_pair`), x-drop re-segmentation,
     peak trimming, rescoring. Near-exact; kept as an ablation.

4. **cull + filter** — contained duplicates drop, the E threshold applies,
   and unmerged partials that fail it are discarded (they were only ever
   merge candidates).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.blast.engine import BlastEngine, rescore_alignment
from repro.blast.hsp import Alignment
from repro.blast.statistics import SearchSpace
from repro.core.merge import split_alignment_at_drops, trim_path_to_peaks, try_merge_pair
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


def _cull_contained(alignments: List[Alignment]) -> List[Alignment]:
    """Drop alignments whose q and s intervals sit inside a higher scorer."""
    ordered = sorted(alignments, key=lambda a: (-a.score, a.q_start, a.s_start))
    kept: List[Alignment] = []
    for aln in ordered:
        contained = any(
            k.q_start <= aln.q_start
            and aln.q_end <= k.q_end
            and k.s_start <= aln.s_start
            and aln.s_end <= k.s_end
            for k in kept
        )
        if not contained:
            kept.append(aln)
    return kept


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
    mode: str = "research",
) -> Tuple[List[Alignment], AggregationStats]:
    """Aggregate all fragment alignments for one (subject, strand) key.

    ``q_codes`` must be in the strand frame the alignments use (the reverse
    complement for minus-strand keys); ``s_codes`` is the subject sequence.
    """
    if mode not in ("research", "splice"):
        raise ValueError(f"mode must be 'research' or 'splice', got {mode!r}")
    stats = AggregationStats(input_alignments=len(items))
    if not items:
        return [], stats

    work, stats.deduped = _dedupe_locations(list(items))
    if mode == "splice":
        finals = _aggregate_splice(work, q_codes, s_codes, engine, space, stats)
    else:
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


def _aggregate_splice(
    work: List[FragmentAlignment],
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    engine: BlastEngine,
    space: SearchSpace,
    stats: AggregationStats,
) -> List[Alignment]:
    """The paper-literal pipeline: merge → re-segment → trim → rescore."""
    p = engine.params
    merged_any = True
    while merged_any:
        merged_any = False
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if not (work[i].is_partial or work[j].is_partial):
                    continue
                cand = try_merge_pair(
                    work[i].alignment, work[j].alignment,
                    q_codes=q_codes, s_codes=s_codes,
                    reward=p.reward, penalty=p.penalty,
                    gap_open=p.gap_open, gap_extend=p.gap_extend,
                )
                if cand is None:
                    continue
                merged = FragmentAlignment(
                    alignment=cand,
                    fragment_index=min(work[i].fragment_index, work[j].fragment_index),
                    partial_left=work[i].partial_left or work[j].partial_left,
                    partial_right=work[i].partial_right or work[j].partial_right,
                    merged=True,
                )
                rest = [work[x] for x in range(len(work)) if x not in (i, j)]
                work = rest + [merged]
                work.sort(key=lambda it: (it.alignment.q_start, it.alignment.s_start))
                stats.merged_pairs += 1
                merged_any = True
                break
            if merged_any:
                break

    finals: List[Alignment] = []
    leftovers: List[Alignment] = []  # unmerged partials, cull candidates
    for item in work:
        needs_resegmentation = item.merged or item.alignment.speculative
        if item.alignment.path is None or not needs_resegmentation:
            # Straight from the engine's normal (peak-relative) extension:
            # its segmentation and endpoints are already serial BLAST's.
            if item.alignment.evalue <= p.evalue_threshold:
                if item.is_partial and not item.merged:
                    leftovers.append(item.alignment)
                else:
                    finals.append(item.alignment)
            else:
                stats.dropped_partials += 1
            continue
        pieces = split_alignment_at_drops(
            item.alignment, q_codes, s_codes,
            p.reward, p.penalty, p.gap_open, p.gap_extend, p.x_drop_gapped,
        )
        kept_any = False
        for piece in pieces:
            aln = trim_path_to_peaks(
                piece, q_codes, s_codes,
                p.reward, p.penalty, p.gap_open, p.gap_extend,
            )
            if aln.path is not None and aln.path.size == 0:
                continue
            aln = rescore_alignment(aln, q_codes, s_codes, engine, space)
            if aln.evalue > p.evalue_threshold:
                continue
            finals.append(aln)
            kept_any = True
        if not kept_any:
            stats.dropped_partials += 1

    # Unmerged partials that survived the E test are kept unless they are
    # boundary-truncated copies of a merged alignment (contained in a higher
    # scorer). Serial-reported contained alignments from distinct seeds are
    # never partial-flagged and pass through `finals` untouched.
    for aln in leftovers:
        truncated_copy = any(
            k.score >= aln.score
            and k.q_start <= aln.q_start
            and aln.q_end <= k.q_end
            and k.s_start <= aln.s_start
            and aln.s_end <= k.s_end
            and not (
                k.q_interval == aln.q_interval and k.s_interval == aln.s_interval
            )
            for k in finals
        )
        if truncated_copy:
            stats.dropped_partials += 1
        else:
            finals.append(aln)
    return finals
