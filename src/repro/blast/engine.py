"""The BLAST search engine: seeds → ungapped → gapped → E-filter.

:class:`BlastEngine` is the single alignment engine every runner in this
reproduction shares — serial BLAST, the mpiBLAST baseline's workers, the
BLAST+ baseline's threads, and Orion's map tasks all call into it. Orion's
boundary-aware behaviour (partial flagging, speculative extension) is driven
entirely through :class:`~repro.blast.params.SearchOptions`, so the engine
stays a faithful implementation of the paper's Section II-B pipeline.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blast.gapped import extend_gapped
from repro.blast.hsp import (
    Alignment,
    MINUS_STRAND,
    PLUS_STRAND,
    SeedHits,
    path_composition,
)
from repro.blast.lookup import QueryIndex
from repro.blast.params import BlastParams, SearchOptions
from repro.blast.scoring import ScoringScheme
from repro.blast.dust import mask_low_complexity
from repro.blast.seeds import find_seeds, thin_seeds, two_hit_filter
from repro.blast.statistics import (
    KarlinAltschulParams,
    SearchSpace,
    bit_score,
    effective_lengths,
    evalue,
    karlin_altschul,
    minimum_significant_score,
)
from repro.blast.ungapped import UngappedBatch, extend_seeds_ungapped
from repro.sequence.alphabet import reverse_complement
from repro.sequence.records import Database, SequenceRecord
from repro.util.timers import Stopwatch


#: Most recently used query indexes of this process, keyed by content
#: ``(k, seed-code bytes)``. Orion runs one map task per (fragment × shard),
#: so a worker sees the same fragment once per shard it serves; the index
#: depends only on the fragment. Content keys survive the per-query job
#: pickle, and a :class:`QueryIndex` is immutable after construction, so
#: concurrent searches may share one.
_QUERY_INDEXES: "OrderedDict[Tuple[int, bytes], QueryIndex]" = OrderedDict()
_QUERY_INDEX_LOCK = threading.Lock()
#: Enough for the fragments (× 2 strands) of the few queries whose tasks
#: interleave in one worker; each entry holds 16 bytes of sorted index and
#: 16–32 bytes of presence table per query base.
_QUERY_INDEX_LIMIT = 16


def _query_index(seed_codes: np.ndarray, k: int) -> QueryIndex:
    """The :class:`QueryIndex` over ``seed_codes``, built at most once
    while it stays among the :data:`_QUERY_INDEX_LIMIT` most recent."""
    key = (k, seed_codes.tobytes())
    with _QUERY_INDEX_LOCK:
        index = _QUERY_INDEXES.get(key)
        if index is not None:
            _QUERY_INDEXES.move_to_end(key)
            return index
    # Built outside the lock: two threads racing on one new fragment both
    # build (identical indexes); they never serialize behind each other.
    index = QueryIndex(seed_codes, k)
    with _QUERY_INDEX_LOCK:
        _QUERY_INDEXES[key] = index
        while len(_QUERY_INDEXES) > _QUERY_INDEX_LIMIT:
            _QUERY_INDEXES.popitem(last=False)
    return index


@dataclass
class SearchCounters:
    """Work counters for one search — the simulator's cost-model inputs."""

    seeds: int = 0
    ungapped_extensions: int = 0
    hsps_passing_threshold: int = 0
    gapped_extensions: int = 0
    speculative_extensions: int = 0
    alignments_reported: int = 0
    subjects_scanned: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "SearchCounters") -> None:
        self.seeds += other.seeds
        self.ungapped_extensions += other.ungapped_extensions
        self.hsps_passing_threshold += other.hsps_passing_threshold
        self.gapped_extensions += other.gapped_extensions
        self.speculative_extensions += other.speculative_extensions
        self.alignments_reported += other.alignments_reported
        self.subjects_scanned += other.subjects_scanned
        self.elapsed_seconds += other.elapsed_seconds


@dataclass
class SearchResult:
    """Alignments (report-sorted) plus counters for one query-vs-database run."""

    query_id: str
    alignments: List[Alignment]
    counters: SearchCounters
    ungapped_threshold: int
    space: SearchSpace

    def __len__(self) -> int:
        return len(self.alignments)


class BlastEngine:
    """Three-phase BLAST search with the paper's default parameters.

    One engine instance precomputes the Karlin–Altschul parameters for its
    scoring scheme; statistics depending on query/database lengths (effective
    lengths, t_u) are derived per search.
    """

    def __init__(self, params: Optional[BlastParams] = None,
                 scheme: Optional[ScoringScheme] = None) -> None:
        self.params = params or BlastParams()
        self.scheme = scheme or ScoringScheme.from_params(self.params)
        if (self.scheme.reward, self.scheme.penalty) != (self.params.reward, self.params.penalty):
            raise ValueError("scoring scheme disagrees with params reward/penalty")
        self.ka: KarlinAltschulParams = karlin_altschul(self.scheme)

    # ------------------------------------------------------------------ #
    # statistics helpers
    # ------------------------------------------------------------------ #

    def search_space(self, query_length: int, db_length: int,
                     num_db_sequences: int) -> SearchSpace:
        """Effective search space for E-value computation."""
        return effective_lengths(self.ka, query_length, db_length, num_db_sequences)

    def ungapped_threshold(self, space: SearchSpace) -> int:
        """The search's ``t_u`` (Table I's length-dependent threshold)."""
        if self.params.ungapped_threshold is not None:
            return self.params.ungapped_threshold
        return minimum_significant_score(self.ka, self.params.evalue_threshold, space)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def search(
        self,
        query: SequenceRecord,
        database: Database,
        options: Optional[SearchOptions] = None,
        stats_space: Optional[SearchSpace] = None,
        strands: str = "plus",
        subject_kmer_cache: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> SearchResult:
        """Search one query against every sequence of a database.

        Parameters
        ----------
        stats_space:
            Override for the effective search space. Runners searching a
            *shard* pass the whole-database space here so E-values (and t_u)
            match what a serial whole-database search would report — the same
            correction mpiBLAST applies.
        strands:
            ``"plus"`` (default) or ``"both"``. Minus-strand alignments carry
            query coordinates in the reverse-complement frame (see
            :class:`~repro.blast.hsp.Alignment`).
        subject_kmer_cache:
            Optional subject id → ``sorted_kmers(...)`` pairs. Subjects it
            covers seed from their pre-packed k-mers instead of re-packing
            their codes (identical results) — Orion builds this cache once
            per database and reuses it across every fragment.
        """
        if strands not in ("plus", "both"):
            raise ValueError(f"strands must be 'plus' or 'both', got {strands!r}")
        options = options or SearchOptions()
        space = stats_space or self.search_space(
            len(query), database.total_length, database.num_sequences
        )
        t_u = self.ungapped_threshold(space)

        counters = SearchCounters()
        sw = Stopwatch().start()
        alignments: List[Alignment] = []
        frames: List[Tuple[np.ndarray, int]] = [(query.codes, PLUS_STRAND)]
        if strands == "both":
            frames.append((reverse_complement(query.codes), MINUS_STRAND))
        for codes, strand in frames:
            # Soft masking: seeds skip low-complexity regions, extensions
            # still run over the original bases (NCBI DUST behaviour).
            seed_codes = codes
            if self.params.dust:
                seed_codes, _ = mask_low_complexity(codes)
            index = _query_index(seed_codes, self.params.k)
            # One join seeds the whole database (a shard, for Orion's map
            # tasks) and one pooled pass thins, extends and culls every
            # subject's hits; only subjects owning a gapped candidate loop.
            subjects = database.records
            hits = find_seeds(index, subjects, subject_kmer_cache)
            alignments.extend(
                self._search_pooled(
                    query.seq_id, codes, hits, subjects, space, t_u,
                    options, counters, strand,
                )
            )
            counters.subjects_scanned += len(subjects)
        counters.elapsed_seconds = sw.stop()
        counters.alignments_reported = len(alignments)
        alignments.sort(key=Alignment.sort_key)
        return SearchResult(
            query_id=query.seq_id,
            alignments=alignments,
            counters=counters,
            ungapped_threshold=t_u,
            space=space,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _search_pooled(
        self,
        query_id: str,
        q_codes: np.ndarray,
        hits: SeedHits,
        subjects: Sequence[SequenceRecord],
        space: SearchSpace,
        t_u: int,
        options: SearchOptions,
        counters: SearchCounters,
        strand: int,
    ) -> List[Alignment]:
        """Everything after seeding for the pooled raw (unthinned) hits of
        ``subjects``; ``hits.owner`` indexes ``subjects``."""
        batch = self._ungapped_pass(q_codes, hits, subjects, counters)
        qlen = int(q_codes.shape[0])
        passing = batch.score >= t_u
        counters.hsps_passing_threshold += int(np.count_nonzero(passing))
        speculative = np.zeros(len(batch), dtype=bool)
        if options.speculative:
            near_left = options.boundary_left & (batch.q_start < options.boundary_margin)
            near_right = options.boundary_right & (
                batch.q_end > qlen - options.boundary_margin
            )
            speculative = (~passing) & (near_left | near_right)
        sel = np.flatnonzero(passing | speculative)
        if sel.size == 0:
            return []
        # Candidates by owner (database order), then by descending score;
        # the sort is stable, so ties keep their batch order.
        sel = sel[np.lexsort((-batch.score[sel], batch.owner[sel]))]
        cand_owner = batch.owner[sel]
        cuts = np.flatnonzero(cand_owner[1:] != cand_owner[:-1]) + 1
        reported: List[Alignment] = []
        for order in np.split(sel, cuts):
            subject = subjects[int(batch.owner[order[0]])]
            reported.extend(
                self._gapped_subject(
                    query_id, q_codes, subject, batch, order, speculative,
                    space, options, counters, strand,
                )
            )
        return reported

    def _ungapped_pass(
        self,
        q_codes: np.ndarray,
        hits: SeedHits,
        subjects: Sequence[SequenceRecord],
        counters: SearchCounters,
    ) -> UngappedBatch:
        """Thin (two-hit filter first, when on), extend and cull the pooled
        raw hits of ``subjects`` in one pass; the batch's ``owner`` column
        indexes ``subjects``."""
        p = self.params
        if p.two_hit_window is None:
            hits = thin_seeds(hits)
            counters.seeds += len(hits)
        else:
            # Two-hit pairing must see the raw hits — thinning collapses an
            # exact run to its head, which would hide the run's later hits.
            counters.seeds += len(hits)
            hits = thin_seeds(two_hit_filter(hits, p.two_hit_window))
        if len(hits) == 0:
            return UngappedBatch.empty()

        # The owners' codes, concatenated: every subject owning a hit has a
        # [s_offsets[o], s_offsets[o + 1]) slice; every other one is empty.
        owned = np.zeros(len(subjects), dtype=bool)
        owned[hits.owner] = True
        parts = [subjects[o].codes for o in np.flatnonzero(owned).tolist()]
        s_offsets = np.zeros(len(subjects) + 1, dtype=np.int64)
        s_offsets[1:][owned] = [part.shape[0] for part in parts]
        np.cumsum(s_offsets, out=s_offsets)
        s_codes = parts[0] if len(parts) == 1 else np.concatenate(parts)
        batch = extend_seeds_ungapped(
            q_codes, s_codes, hits, p.reward, p.penalty, p.x_drop_ungapped, s_offsets
        )
        counters.ungapped_extensions += len(batch)
        return batch

    def _gapped_subject(
        self,
        query_id: str,
        q_codes: np.ndarray,
        subject: SequenceRecord,
        batch: UngappedBatch,
        order: np.ndarray,
        speculative: np.ndarray,
        space: SearchSpace,
        options: SearchOptions,
        counters: SearchCounters,
        strand: int,
    ) -> List[Alignment]:
        """Gapped extension of one subject's candidate HSPs, ``order`` being
        their batch indexes by descending ungapped score."""
        p = self.params
        qlen = int(q_codes.shape[0])
        reported: List[Alignment] = []
        covered: List[Tuple[int, int, int, int]] = []  # q/s intervals of alignments
        for idx in order:
            if (
                options.max_hsps_per_subject is not None
                and len(reported) >= options.max_hsps_per_subject
            ):
                break
            hq = (int(batch.q_start[idx]) + int(batch.q_end[idx])) // 2
            hs = int(batch.s_start[idx]) + (hq - int(batch.q_start[idx]))
            if any(qs <= hq < qe and ss <= hs < se for qs, qe, ss, se in covered):
                continue  # anchor already inside a reported alignment (phase-ii skip)
            is_spec = bool(speculative[idx])
            ext = extend_gapped(
                q_codes, subject.codes, hq, hs,
                p.reward, p.penalty, p.gap_open, p.gap_extend,
                p.x_drop_gapped,
                absolute_drop=is_spec,
                keep_traceback=options.keep_traceback,
            )
            if is_spec:
                counters.speculative_extensions += 1
            counters.gapped_extensions += 1
            if ext.q_end == ext.q_start:  # extension collapsed to nothing
                continue
            aln = self._make_alignment(
                query_id, q_codes, subject, ext, space, strand, is_spec
            )
            touches_left = options.boundary_left and aln.q_start < options.boundary_margin
            touches_right = options.boundary_right and aln.q_end > qlen - options.boundary_margin
            is_partial = touches_left or touches_right
            if aln.evalue > p.evalue_threshold and not is_partial:
                continue  # insignificant and not rescuable by aggregation
            reported.append(aln)
            covered.append((aln.q_start, aln.q_end, aln.s_start, aln.s_end))
        return _dedupe(reported)

    def _make_alignment(
        self,
        query_id: str,
        q_codes: np.ndarray,
        subject: SequenceRecord,
        ext,
        space: SearchSpace,
        strand: int,
        speculative: bool = False,
    ) -> Alignment:
        matches = mismatches = opens = gap_cols = 0
        if ext.path is not None:
            matches, mismatches, opens, gap_cols = path_composition(
                ext.path, q_codes, subject.codes, ext.q_start, ext.s_start
            )
        score = max(0, int(ext.score))
        return Alignment(
            query_id=query_id,
            subject_id=subject.seq_id,
            q_start=ext.q_start,
            q_end=ext.q_end,
            s_start=ext.s_start,
            s_end=ext.s_end,
            score=int(ext.score),
            evalue=evalue(self.ka, score, space),
            bits=bit_score(self.ka, score),
            matches=matches,
            mismatches=mismatches,
            gap_opens=opens,
            gap_columns=gap_cols,
            strand=strand,
            path=ext.path,
            speculative=speculative,
        )


def _dedupe(alignments: List[Alignment]) -> List[Alignment]:
    """Collapse alignments describing the same aligned region."""
    seen: Dict[Tuple, Alignment] = {}
    for aln in alignments:
        key = (aln.subject_id, aln.strand, aln.q_start, aln.q_end, aln.s_start, aln.s_end)
        prev = seen.get(key)
        if prev is None or aln.score > prev.score:
            seen[key] = aln
    # First-seen order IS the spec here: the caller feeds alignments ranked
    # by descending score, and report order must keep that ranking.
    return list(seen.values())  # orionlint: disable=ORL004

