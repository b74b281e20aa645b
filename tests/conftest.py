"""Shared fixtures: small deterministic databases/queries with ground truth.

Sizes are kept small enough that the whole suite runs in well under a
minute while still exercising fragment boundaries, merges and E-filtering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blast.dust import mask_low_complexity
from repro.blast.engine import BlastEngine, SearchCounters, _dedupe
from repro.blast.gapped import extend_gapped
from repro.blast.hsp import (
    MINUS_STRAND,
    OP_DIAG,
    PLUS_STRAND,
    Alignment,
    SeedHits,
    path_composition,
)
from repro.blast.lookup import QueryIndex, valid_kmers
from repro.blast.seeds import find_seeds, thin_seeds, two_hit_filter
from repro.blast.ungapped import UngappedBatch, extend_seeds_ungapped
from repro.sequence.alphabet import reverse_complement
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.mutate import MutationModel
from repro.sequence.records import SequenceRecord


@pytest.fixture(scope="session")
def small_db():
    """20 sequences, ~100 kbp total — shared read-only database."""
    return make_database(seed=101, num_sequences=20, mean_length=5000)


@pytest.fixture(scope="session")
def query_with_truth(small_db):
    """A 60 kbp query with three planted homologies (and the ground truth)."""
    return make_query_with_homologies(
        seed=202,
        length=60_000,
        database=small_db,
        homologies=[
            HomologySpec(length=900, model=MutationModel.close_homolog()),
            HomologySpec(length=1500, model=MutationModel.close_homolog()),
            HomologySpec(length=700, model=MutationModel.distant_homolog()),
        ],
    )


@pytest.fixture(scope="session")
def engine():
    """One default-parameter engine (Karlin-Altschul params computed once)."""
    return BlastEngine()


@pytest.fixture(scope="session")
def serial_result(engine, query_with_truth, small_db):
    """Serial whole-database search — the oracle for equality tests."""
    query, _ = query_with_truth
    return engine.search(query, small_db)


def alignment_keys(alignments):
    """Canonical comparable identity of an alignment list."""
    return sorted(
        (a.subject_id, a.strand, a.q_start, a.q_end, a.s_start, a.s_end, a.score)
        for a in alignments
    )


def seeds_of(index, subject_codes, thin=True):
    """One subject's seed hits through the pooled :func:`find_seeds`."""
    hits = find_seeds(index, [SequenceRecord("s", subject_codes)])
    return thin_seeds(hits) if thin else hits


def lookup(index, subject_codes):
    """Seeding oracle: every exact k-mer match of one subject against a
    :class:`~repro.blast.lookup.QueryIndex`, by one join of the subject's
    own k-mers. Returns ``(q_pos, s_pos)`` int64 arrays of equal length."""
    keys, positions = valid_kmers(subject_codes, index.k)
    needle, q_pos = index.join(keys)
    return q_pos, positions[needle]


def ungapped_subject(engine, q_codes, hits, subject_codes, counters):
    """Per-subject oracle of the engine's pooled ungapped pass: thin (two-hit
    filter first, when on), extend and cull one subject's raw hits alone."""
    p = engine.params
    if p.two_hit_window is None:
        hits = thin_seeds(hits)
        counters.seeds += len(hits)
    else:
        counters.seeds += len(hits)
        hits = thin_seeds(two_hit_filter(hits, p.two_hit_window))
    if len(hits) == 0:
        return UngappedBatch.empty()
    batch = extend_seeds_ungapped(
        q_codes, subject_codes, hits, p.reward, p.penalty, p.x_drop_ungapped
    )
    counters.ungapped_extensions += len(batch)
    return batch


def search_subject(engine, query_id, q_codes, hits, subject, space, t_u,
                   options, counters, strand):
    """Per-subject oracle of the engine's pooled pass: everything after
    seeding for one subject's raw (unthinned) hits, one subject at a time."""
    p = engine.params
    batch = ungapped_subject(engine, q_codes, hits, subject.codes, counters)
    if len(batch) == 0:
        return []
    qlen = int(q_codes.shape[0])
    passing = batch.score >= t_u
    counters.hsps_passing_threshold += int(np.count_nonzero(passing))
    speculative = np.zeros(len(batch), dtype=bool)
    if options.speculative:
        near_left = options.boundary_left & (batch.q_start < options.boundary_margin)
        near_right = options.boundary_right & (batch.q_end > qlen - options.boundary_margin)
        speculative = (~passing) & (near_left | near_right)
    candidates = passing | speculative
    if not candidates.any():
        return []
    sel = np.flatnonzero(candidates)
    order = sel[np.argsort(-batch.score[sel], kind="stable")]
    reported = []
    covered = []
    for idx in order:
        if (
            options.max_hsps_per_subject is not None
            and len(reported) >= options.max_hsps_per_subject
        ):
            break
        hq = (int(batch.q_start[idx]) + int(batch.q_end[idx])) // 2
        hs = int(batch.s_start[idx]) + (hq - int(batch.q_start[idx]))
        if any(qs <= hq < qe and ss <= hs < se for qs, qe, ss, se in covered):
            continue
        is_spec = bool(speculative[idx])
        ext = extend_gapped(
            q_codes, subject.codes, hq, hs,
            p.reward, p.penalty, p.gap_open, p.gap_extend, p.x_drop_gapped,
            absolute_drop=is_spec, keep_traceback=options.keep_traceback,
            kernel=p.dp_kernel,
        )
        if is_spec:
            counters.speculative_extensions += 1
        counters.gapped_extensions += 1
        if ext.q_end == ext.q_start:
            continue
        aln = engine._make_alignment(query_id, q_codes, subject, ext, space, strand, is_spec)
        touches_left = options.boundary_left and aln.q_start < options.boundary_margin
        touches_right = options.boundary_right and aln.q_end > qlen - options.boundary_margin
        if aln.evalue > p.evalue_threshold and not (touches_left or touches_right):
            continue
        reported.append(aln)
        covered.append((aln.q_start, aln.q_end, aln.s_start, aln.s_end))
    return _dedupe(reported)


def reference_search(engine, query, database, options, strands="plus", space=None):
    """The engine's search as a per-subject loop: :func:`lookup` seeds each
    subject alone and :func:`search_subject` carries it through. Returns
    ``(alignments, counters)`` (``elapsed_seconds`` left at zero)."""
    space = space or engine.search_space(
        len(query), database.total_length, database.num_sequences
    )
    t_u = engine.ungapped_threshold(space)
    counters = SearchCounters()
    alignments = []
    frames = [(query.codes, PLUS_STRAND)]
    if strands == "both":
        frames.append((reverse_complement(query.codes), MINUS_STRAND))
    for codes, strand in frames:
        seed_codes = mask_low_complexity(codes)[0] if engine.params.dust else codes
        index = QueryIndex(seed_codes, engine.params.k)
        for subject in database:
            hits = SeedHits(*lookup(index, subject.codes), index.k)
            alignments.extend(
                search_subject(
                    engine, query.seq_id, codes, hits, subject, space, t_u,
                    options, counters, strand,
                )
            )
            counters.subjects_scanned += 1
    counters.alignments_reported = len(alignments)
    alignments.sort(key=Alignment.sort_key)
    return alignments, counters


def score_path(path: np.ndarray, q_codes: np.ndarray, s_codes: np.ndarray,
               q_start: int, s_start: int, reward: int, penalty: int,
               gap_open: int, gap_extend: int) -> int:
    """Recompute the raw score of an alignment path from the sequences.

    Adjacent OP_QGAP and OP_SGAP runs are treated as separate gaps, matching
    the DP's affine model.
    """
    path = np.asarray(path, dtype=np.uint8)
    if path.size == 0:
        return 0
    matches, mismatches, _, _ = path_composition(path, q_codes, s_codes, q_start, s_start)
    score = matches * reward + mismatches * penalty
    # Gap runs: a run boundary is any transition into a gap op or between the
    # two gap kinds (a QGAP directly followed by an SGAP opens a second gap).
    is_gap = path != OP_DIAG
    if np.any(is_gap):
        gap_cols = int(np.count_nonzero(is_gap))
        new_run = np.empty(path.size, dtype=bool)
        new_run[0] = is_gap[0]
        new_run[1:] = is_gap[1:] & ((~is_gap[:-1]) | (path[1:] != path[:-1]))
        opens = int(np.count_nonzero(new_run))
        score -= opens * gap_open + gap_cols * gap_extend
    return int(score)
