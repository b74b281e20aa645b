"""Shared fixtures: small deterministic databases/queries with ground truth.

Sizes are kept small enough that the whole suite runs in well under a
minute while still exercising fragment boundaries, merges and E-filtering.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.blast.dust import mask_low_complexity
from repro.blast.engine import BlastEngine, SearchCounters, _dedupe
from repro.blast.gapped import GappedExtension, _validate_affine, extend_gapped
from repro.blast.hsp import (
    MINUS_STRAND,
    OP_DIAG,
    OP_QGAP,
    OP_SGAP,
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


#: "Minus infinity" for the row-loop oracle's integer DP cells.
NEG_INF = np.int64(-(2**40))


def _window(arr: np.ndarray, arr_lo: int, lo: int, hi: int) -> np.ndarray:
    """Values of a banded array over [lo, hi), padded with NEG_INF outside."""
    out = np.full(hi - lo, NEG_INF, dtype=np.int64)
    src_lo = max(lo, arr_lo)
    src_hi = min(hi, arr_lo + arr.shape[0])
    if src_hi > src_lo:
        out[src_lo - lo : src_hi - lo] = arr[src_lo - arr_lo : src_hi - arr_lo]
    return out


def rowloop_half_extension(
    q: np.ndarray,
    s: np.ndarray,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
    absolute_drop: bool,
    keep_traceback: bool,
) -> Tuple[int, int, int, Optional[np.ndarray]]:
    """One-direction gapped x-drop DP from the implicit origin (0, 0), one
    interpreter iteration per query row. Returns ``(score, rows_consumed,
    cols_consumed, path)``, the contract of
    :func:`repro.blast.wavefront.wavefront_half_extension`."""
    m = int(q.shape[0])
    n = int(s.shape[0])
    best_score = 0
    best_cell = (0, 0)

    # Maximum columns a single gap can stretch from a score-0 cell while the
    # row stays above the (initial) cutoff; bounds row widths.
    def gap_reach(from_score: int, cutoff: int) -> int:
        budget = from_score - cutoff - gap_open
        return max(0, budget // gap_extend) if budget >= 0 else -1

    cutoff = -x_drop
    # Row 0: H[0][j] = -(gap_open + gap_extend*j) for j >= 1. Column 0 (the
    # origin, score 0) always survives, even when x_drop is smaller than a
    # single gap open (reach0 < 0).
    reach0 = gap_reach(0, cutoff)
    hi = min(n, max(reach0, 0)) + 1  # columns [0, hi)
    lo = 0
    j0 = np.arange(hi, dtype=np.int64)
    h_prev = np.where(j0 == 0, np.int64(0), -(gap_open + gap_extend * j0))
    f_prev = np.full(hi, NEG_INF, dtype=np.int64)
    rows: List[Tuple[int, np.ndarray]] = [(lo, h_prev.copy())] if keep_traceback else []
    lo_prev, hi_prev = lo, hi

    for i in range(1, m + 1):
        if not absolute_drop:
            cutoff = best_score - x_drop
        # base (diag + vertical) is defined on columns [lo_prev, hi_prev + 1);
        # horizontal gaps can then push the row edge further right.
        base_hi = min(n + 1, hi_prev + 1)
        lo_i = lo_prev
        width = base_hi - lo_i
        if width <= 0:
            break

        h_up = _window(h_prev, lo_prev, lo_i, base_hi)  # H[i-1][j]
        f_up = _window(f_prev, lo_prev, lo_i, base_hi)  # F[i-1][j]
        h_diag = _window(h_prev, lo_prev, lo_i - 1, base_hi - 1)  # H[i-1][j-1]

        qc = q[i - 1]
        js = np.arange(lo_i, base_hi, dtype=np.int64)
        # Substitution scores for columns j >= 1 (s[j-1] aligned to q[i-1]).
        sub = np.full(width, NEG_INF, dtype=np.int64)
        valid_j = js >= 1
        if valid_j.any():
            s_idx = js[valid_j] - 1
            is_match = (s[s_idx] == qc) & (qc < 4) & (s[s_idx] < 4)
            sub[valid_j] = np.where(is_match, np.int64(reward), np.int64(penalty))

        diag = h_diag + sub
        f_cur = np.maximum(f_up - gap_extend, h_up - gap_open - gap_extend)
        base = np.maximum(diag, f_cur)

        # Extend the row to the right as far as a horizontal gap could stay
        # above the cutoff, then compute E by the telescoped cummax.
        base_max = int(base.max()) if width else NEG_INF
        extra = gap_reach(base_max, cutoff) if base_max > NEG_INF // 2 else -1
        hi_i = min(n + 1, max(base_hi, lo_i + width + max(extra, 0)))
        if hi_i > base_hi:
            pad = hi_i - base_hi
            base = np.concatenate([base, np.full(pad, NEG_INF, dtype=np.int64)])
            f_cur = np.concatenate([f_cur, np.full(pad, NEG_INF, dtype=np.int64)])
            js = np.arange(lo_i, hi_i, dtype=np.int64)
        # A[k] = base[k] + extend*k ; E[j] = cummax(A)[j-1] - open - extend*j
        a = base + gap_extend * js
        cummax_a = np.maximum.accumulate(a)
        e_cur = np.full(js.shape[0], NEG_INF, dtype=np.int64)
        if js.shape[0] > 1:
            e_cur[1:] = cummax_a[:-1] - gap_open - gap_extend * js[1:]
        h_cur = np.maximum(base, e_cur)

        row_best = int(h_cur.max())
        if row_best > best_score:
            best_score = row_best
            best_cell = (i, lo_i + int(h_cur.argmax()))
            if not absolute_drop:
                cutoff = best_score - x_drop

        alive = h_cur >= cutoff
        if not alive.any():
            if keep_traceback:
                rows.append((lo_i, h_cur))
            break
        first = int(np.argmax(alive))
        last = js.shape[0] - 1 - int(np.argmax(alive[::-1]))
        new_lo = lo_i + first
        new_hi = lo_i + last + 1
        h_prev = h_cur[first : last + 1]
        f_prev = f_cur[first : last + 1]
        if keep_traceback:
            rows.append((new_lo, h_prev.copy()))
        lo_prev, hi_prev = new_lo, new_hi

    bi, bj = best_cell
    path = None
    if keep_traceback:
        path = _traceback(rows, bi, bj, q, s, reward, penalty, gap_open, gap_extend)
    return best_score, bi, bj, path


def _cell(rows: List[Tuple[int, np.ndarray]], i: int, j: int) -> int:
    """Stored H[i][j], or NEG_INF when outside the surviving band."""
    if i < 0 or i >= len(rows) or j < 0:
        return int(NEG_INF)
    lo, arr = rows[i]
    if j < lo or j >= lo + arr.shape[0]:
        return int(NEG_INF)
    return int(arr[j - lo])


def _traceback(
    rows: List[Tuple[int, np.ndarray]],
    bi: int,
    bj: int,
    q: np.ndarray,
    s: np.ndarray,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
) -> np.ndarray:
    """Reconstruct the op path from (0,0) to the best cell.

    Works from stored H rows alone: at each cell the predecessor is found by
    testing the three recurrence branches for exact equality (integer DP, so
    equality is exact). Vertical and horizontal gaps are located by scanning
    the telescoped chain — O(gap length), negligible against the forward DP.
    """
    ops: List[int] = []
    i, j = bi, bj
    while i > 0 or j > 0:
        h_ij = _cell(rows, i, j)
        if h_ij <= int(NEG_INF) // 2:  # pragma: no cover - defensive
            raise RuntimeError(f"traceback entered a dead cell at ({i}, {j})")
        if i > 0 and j > 0:
            qc, sc = q[i - 1], s[j - 1]
            sub = reward if (qc == sc and qc < 4 and sc < 4) else penalty
            if h_ij == _cell(rows, i - 1, j - 1) + sub:
                ops.append(OP_DIAG)
                i -= 1
                j -= 1
                continue
        moved = False
        for g in range(1, i + 1):  # vertical: gap in subject, consumes query
            prev = _cell(rows, i - g, j)
            if prev <= int(NEG_INF) // 2:
                continue
            if h_ij == prev - gap_open - gap_extend * g:
                ops.extend([OP_SGAP] * g)
                i -= g
                moved = True
                break
        if moved:
            continue
        for g in range(1, j + 1):  # horizontal: gap in query, consumes subject
            prev = _cell(rows, i, j - g)
            if prev <= int(NEG_INF) // 2:
                continue
            if h_ij == prev - gap_open - gap_extend * g:
                ops.extend([OP_QGAP] * g)
                j -= g
                moved = True
                break
        if not moved:  # pragma: no cover - would indicate a DP bug
            raise RuntimeError(f"no predecessor found for cell ({i}, {j})")
    return np.array(ops[::-1], dtype=np.uint8)


def extend_gapped_rowloop(q_codes, s_codes, anchor_q, anchor_s, reward, penalty,
                          gap_open, gap_extend, x_drop, absolute_drop=False,
                          keep_traceback=True):
    """Row-loop oracle of :func:`repro.blast.gapped.extend_gapped`: both
    halves by :func:`rowloop_half_extension`, stitched at the anchor."""
    if not (0 <= anchor_q <= q_codes.shape[0] and 0 <= anchor_s <= s_codes.shape[0]):
        raise ValueError(f"anchor ({anchor_q}, {anchor_s}) outside sequences")
    _validate_affine(gap_open, gap_extend, x_drop)
    right = rowloop_half_extension(
        q_codes[anchor_q:], s_codes[anchor_s:], reward, penalty,
        gap_open, gap_extend, x_drop, absolute_drop, keep_traceback,
    )
    left = rowloop_half_extension(
        q_codes[:anchor_q][::-1], s_codes[:anchor_s][::-1], reward, penalty,
        gap_open, gap_extend, x_drop, absolute_drop, keep_traceback,
    )
    path = np.concatenate([left[3][::-1], right[3]]) if keep_traceback else None
    return GappedExtension(
        score=left[0] + right[0],
        q_start=anchor_q - left[1],
        q_end=anchor_q + right[1],
        s_start=anchor_s - left[2],
        s_end=anchor_s + right[2],
        path=path,
    )


#: Column names of the classic BLAST tabular format.
TABULAR_COLUMNS = (
    "qseqid", "sseqid", "pident", "length", "mismatch", "gapopen",
    "qstart", "qend", "sstart", "send", "evalue", "bitscore",
)


def parse_tabular(text: str) -> List[dict]:
    """Tabular oracle: parse :func:`repro.blast.formatter.format_tabular`
    text back into column dictionaries.

    Numeric columns are converted; coordinates stay in the 1-based inclusive
    convention of the format (callers needing half-open coordinates subtract
    one from the starts). Raises on malformed rows.
    """
    rows: List[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != len(TABULAR_COLUMNS):
            raise ValueError(
                f"line {lineno}: expected {len(TABULAR_COLUMNS)} columns, got {len(parts)}"
            )
        row = dict(zip(TABULAR_COLUMNS, parts))
        row["pident"] = float(row["pident"])
        row["length"] = int(row["length"])
        row["mismatch"] = int(row["mismatch"])
        row["gapopen"] = int(row["gapopen"])
        for key in ("qstart", "qend", "sstart", "send"):
            row[key] = int(row[key])
        row["evalue"] = float(row["evalue"])
        row["bitscore"] = float(row["bitscore"])
        rows.append(row)
    return rows
