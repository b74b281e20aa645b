"""Batched wavefront kernel for gapped x-drop extension.

This module is the engine behind :func:`repro.blast.gapped.extend_gapped`.
It computes *exactly* the same banded affine x-drop DP as the row-loop
reference oracle kept in ``tests/conftest.py`` — same scores, same best-cell
endpoints, same op paths, for both the peak-relative and absolute drop
rules — but removes nearly all interpreter overhead from the hot loop:

* **Wavefront-batched substitution scores.** Instead of gathering and
  comparing ``q[i-1]`` against the subject window once per row (half a
  dozen NumPy calls each), substitution scores for a whole *block* of rows
  × the band's column range are materialized in one broadcasted comparison
  (a 2-D tile). Each DP row then slices its substitution wavefront out of
  the tile for free. The tile is rebuilt only when the band drifts past the
  precomputed column range or the block of rows is exhausted.

* **Zero-allocation band advance.** The band lives in a set of
  preallocated scratch buffers (double-buffered ``H``/``F``) that grow by
  doubling; every per-row operation is an ``out=``-style NumPy call on a
  view. The within-row horizontal affine dependency uses the same
  telescoped identity as the reference kernel::

      E[j] = cummax(base + gap_extend*j) − gap_open − gap_extend*j

  so a row is two ``np.maximum``-class passes regardless of width. The
  ``gap_extend*j`` / ``gap_open + gap_extend*j`` ramps are precomputed once
  per extension and sliced per row.

* **Dense band plane for traceback.** When a path is requested the
  surviving band of every row is written into one 2-D plane (rows × band
  capacity) with per-row ``lo``/``width`` arrays, instead of a Python list
  of ragged arrays. That layout makes the traceback *vectorizable*: runs of
  diagonal ops are matched in chunks with one fancy-indexed gather per
  chunk, and the per-gap scalar scans of the reference traceback become a
  single equality comparison against the affine target ramp.

Equivalence with the row-loop kernel is enforced by a differential
hypothesis suite (``tests/blast/test_gapped_diff.py``) and, end to end, by
the executor-equivalence property tests.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.blast.hsp import OP_DIAG, OP_QGAP, OP_SGAP

#: "Minus infinity" for integer DP cells (large enough headroom that adding
#: substitution scores can never wrap).
NEG_INF = np.int64(-(2**40))
_DEAD = int(NEG_INF) // 2

#: Rows per substitution tile (wavefront block height).
_TILE_ROWS = 64
#: Extra column slack so a tile survives the band's rightward drift.
_TILE_SLACK = 16
#: Gather chunk for the vectorized traceback.
_TB_CHUNK = 64
#: Scalar steps to walk in from a band edge before falling back to argmax.
_EDGE_WALK = 12


class _BandPlane:
    """Dense storage of every row's surviving band, for traceback.

    Row ``i`` of the DP is stored as ``plane[i, :width[i]]`` holding
    ``H[i][lo[i] : lo[i] + width[i]]``; cells outside are dead. Both axes
    grow by doubling.
    """

    __slots__ = ("plane", "lo", "width", "nrows")

    def __init__(self, expected_rows: int, initial_cap: int) -> None:
        rows = max(4, min(expected_rows, 256))
        self.plane = np.full((rows, max(4, initial_cap)), NEG_INF, dtype=np.int64)
        self.lo: List[int] = []
        self.width: List[int] = []
        self.nrows = 0

    def ensure(self, w: int) -> None:
        """Grow (by doubling) so one more row of width ``w`` fits."""
        nr, cap = self.plane.shape
        if self.nrows < nr and w <= cap:
            return
        new_rows = max(nr * 2, self.nrows + 1)
        new_cap = cap
        while new_cap < w:
            new_cap *= 2
        grown = np.full((new_rows, new_cap), NEG_INF, dtype=np.int64)
        grown[: self.nrows, :cap] = self.plane[: self.nrows]
        self.plane = grown

    def append(self, lo: int, row: np.ndarray) -> None:
        w = int(row.shape[0])
        self.ensure(w)
        # Rows are written exactly once and the plane is born NEG_INF-filled,
        # so cells past `w` are already dead — no tail reset needed.
        self.plane[self.nrows, :w] = row
        self.lo.append(lo)
        self.width.append(w)
        self.nrows += 1

    def cell(self, i: int, j: int) -> int:
        """Stored H[i][j], or NEG_INF outside the surviving band."""
        if i < 0 or i >= self.nrows or j < 0:
            return int(NEG_INF)
        k = j - self.lo[i]
        if k < 0 or k >= self.width[i]:
            return int(NEG_INF)
        return int(self.plane[i, k])


class _Scratch:
    """Preallocated per-row buffers; all grow together by doubling."""

    __slots__ = ("cap", "h_a", "h_b", "f_a", "f_b", "fb", "hb", "db", "ab", "cm", "eb")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        for name in ("h_a", "h_b", "f_a", "f_b", "fb", "hb", "db", "ab", "cm", "eb"):
            setattr(self, name, np.full(cap, NEG_INF, dtype=np.int64))

    def grow(self, need: int) -> None:
        cap = self.cap
        while cap < need:
            cap *= 2
        for name in self.__slots__[1:]:
            old = getattr(self, name)
            new = np.full(cap, NEG_INF, dtype=np.int64)
            new[: old.shape[0]] = old
            setattr(self, name, new)
        self.cap = cap


def _build_tile(
    q: np.ndarray,
    s: np.ndarray,
    reward: int,
    penalty: int,
    i0: int,
    i1: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Substitution wavefront tile: scores for rows [i0, i1) × cols [lo, hi).

    Column ``j`` scores ``s[j-1]`` against ``q[i-1]``; column 0 (the DP
    origin column) is dead. Ambiguous codes (>= 4) always mismatch, exactly
    like the reference kernel.
    """
    c0 = max(lo, 1)
    qseg = q[i0 - 1 : i1 - 1]
    sseg = s[c0 - 1 : hi - 1]
    q_col = qseg[:, None]
    is_match = (sseg[None, :] == q_col) & (q_col < 4) & (sseg[None, :] < 4)
    vals = np.where(is_match, np.int64(reward), np.int64(penalty))
    if c0 == lo:
        return vals
    tile = np.empty((i1 - i0, hi - lo), dtype=np.int64)
    tile[:, : c0 - lo] = NEG_INF
    tile[:, c0 - lo :] = vals
    return tile


def wavefront_half_extension(
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
    """One-direction gapped x-drop DP from the implicit origin (0, 0).

    Returns ``(score, rows_consumed, cols_consumed, path)`` — the same
    contract as the row-loop reference oracle's half extension.
    """
    m = int(q.shape[0])
    n = int(s.shape[0])
    go = int(gap_open)
    ge = int(gap_extend)
    goe = go + ge
    best_score = 0
    best_i, best_j = 0, 0
    prev_row_best = 0  # row 0's maximum is the origin's score
    pad_bonus = max(reward, penalty, 0)
    cutoff = -int(x_drop)

    # Row 0: H[0][j] = -(gap_open + gap_extend*j) for j >= 1; the origin
    # (score 0) always survives even when a single gap open exceeds x_drop.
    budget0 = -cutoff - go
    reach0 = max(0, budget0 // ge) if budget0 >= 0 else 0
    hi_prev = min(n, reach0) + 1
    lo_prev = 0

    # Affine column ramps, sliced per row: geJ[j] = ge*j, goJ[j] = go+ge*j.
    jcap = 16
    while jcap < hi_prev + 1:
        jcap *= 2
    jramp = np.arange(jcap, dtype=np.int64)
    geJ = jramp * ge
    goJ = geJ + go

    scratch = _Scratch(max(16, 2 * hi_prev))
    h_prev = scratch.h_a[:hi_prev]
    np.negative(goJ[:hi_prev], out=h_prev)
    h_prev[0] = 0
    f_prev = scratch.f_a[:hi_prev]
    f_prev[:] = NEG_INF
    use_a = True  # h_prev/f_prev currently live in the *_a buffers

    plane: Optional[_BandPlane] = None
    if keep_traceback:
        plane = _BandPlane(m + 1, hi_prev)
        plane.append(0, h_prev)

    # Substitution tile state (empty until the first row needs one).
    tile = np.empty((0, 0), dtype=np.int64)
    tile_i0 = tile_i1 = 0
    tile_lo = tile_hi = 0

    for i in range(1, m + 1):
        if not absolute_drop:
            cutoff = best_score - x_drop
        base_hi = hi_prev + 1 if hi_prev < n + 1 else n + 1
        lo_i = lo_prev
        width = base_hi - lo_i
        if width <= 0:
            break
        w_prev = hi_prev - lo_prev

        if i >= tile_i1 or base_hi > tile_hi or lo_i < tile_lo:
            tile_i0, tile_i1 = i, min(m + 1, i + _TILE_ROWS)
            tile_lo = lo_i
            tile_hi = min(n + 1, base_hi + _TILE_ROWS + _TILE_SLACK)
            tile = _build_tile(q, s, reward, penalty, tile_i0, tile_i1, tile_lo, tile_hi)
        sub = tile[i - tile_i0, lo_i - tile_lo : base_hi - tile_lo]

        if use_a:
            h_buf, f_buf = scratch.h_b, scratch.f_b
        else:
            h_buf, f_buf = scratch.h_a, scratch.f_a
        fb, hb, db, ab, cm, eb = (
            scratch.fb, scratch.hb, scratch.db, scratch.ab, scratch.cm, scratch.eb,
        )

        # F[i] = max(F[i-1] - ge, H[i-1] - go - ge), padded dead on the right.
        avail = w_prev if w_prev < width else width
        np.subtract(f_prev[:avail], ge, out=fb[:avail])
        np.subtract(h_prev[:avail], goe, out=hb[:avail])
        if avail < width:
            fb[avail:width] = NEG_INF
            hb[avail:width] = NEG_INF
        f_cur = f_buf[:width]
        np.maximum(fb[:width], hb[:width], out=f_cur)

        # diag[k] = H[i-1][j-1] + sub[j]  (H[i-1] shifted right one column).
        avail_d = w_prev if w_prev < width - 1 else width - 1
        db[0] = NEG_INF
        if avail_d > 0:
            np.add(h_prev[:avail_d], sub[1 : 1 + avail_d], out=db[1 : 1 + avail_d])
        if 1 + avail_d < width:
            db[1 + avail_d : width] = NEG_INF

        base = db[:width]
        np.maximum(base, f_cur, out=base)

        # Extend the row right as far as one horizontal gap could stay above
        # the cutoff. The reference kernel pads by gap_reach(max(base)); we
        # use the cheaper bound max(base) <= prev_row_best + reward, which
        # can only *over*-pad. Over-padding is provably inert: every column
        # past gap_reach(max(base)) scores E[j] <= max(base) − go −
        # ge·(j−base_hi+1) < cutoff, so the extra cells are dead, below any
        # row maximum, and trimmed right back by the alive test — scores,
        # endpoints, and paths stay byte-identical to the reference.
        budget = prev_row_best + pad_bonus - cutoff - go
        hi_i = base_hi + (budget // ge) if budget >= 0 else base_hi
        if hi_i > n + 1:
            hi_i = n + 1
        w_i = hi_i - lo_i
        if w_i + 1 > scratch.cap:
            scratch.grow(w_i + 1)
            # Re-bind every view into the regrown buffers.
            if use_a:
                h_buf, f_buf = scratch.h_b, scratch.f_b
            else:
                h_buf, f_buf = scratch.h_a, scratch.f_a
            fb, hb, db, ab, cm, eb = (
                scratch.fb, scratch.hb, scratch.db, scratch.ab, scratch.cm, scratch.eb,
            )
            base = db[:width]
            f_cur = f_buf[:width]
        if w_i > width:
            db[width:w_i] = NEG_INF
            f_buf[width:w_i] = NEG_INF
            base = db[:w_i]
            f_cur = f_buf[:w_i]
        if hi_i + 1 > jcap:
            while jcap < hi_i + 1:
                jcap *= 2
            jramp = np.arange(jcap, dtype=np.int64)
            geJ = jramp * ge
            goJ = geJ + go

        # E by the telescoped identity: one cummax, one subtract.
        np.add(base, geJ[lo_i:hi_i], out=ab[:w_i])
        np.maximum.accumulate(ab[:w_i], out=cm[:w_i])
        eb[0] = NEG_INF
        if w_i > 1:
            np.subtract(cm[: w_i - 1], goJ[lo_i + 1 : hi_i], out=eb[1:w_i])
        h_cur = h_buf[:w_i]
        np.maximum(base, eb[:w_i], out=h_cur)

        # argmax + one scalar read gives both the row maximum and its first
        # position (ndarray.max() pays a slow wrapper path; argmax doesn't).
        am = int(h_cur.argmax())
        row_best = int(h_cur[am])
        if row_best > best_score:
            best_score = row_best
            best_i, best_j = i, lo_i + am
            if not absolute_drop:
                cutoff = best_score - x_drop

        if row_best < cutoff:
            if plane is not None:
                plane.append(lo_i, h_cur)
            break
        # Trim dead edges. Bands trim by a handful of cells per row, so walk
        # in from each edge with scalar reads and fall back to a vectorized
        # argmax only on a deep trim (same cells found either way).
        first = 0
        while first < _EDGE_WALK and h_cur[first] < cutoff:
            first += 1
        if first == _EDGE_WALK:
            first = int((h_cur >= cutoff).argmax())
        last = w_i - 1
        stop = w_i - 1 - _EDGE_WALK
        while last > stop and h_cur[last] < cutoff:
            last -= 1
        if last == stop:
            last = w_i - 1 - int((h_cur[::-1] >= cutoff).argmax())
        lo_prev = lo_i + first
        hi_prev = lo_i + last + 1
        h_prev = h_buf[first : last + 1]
        f_prev = f_buf[first : last + 1]
        prev_row_best = row_best
        if plane is not None:
            # Inlined plane.append — this runs once per surviving row.
            pw = last + 1 - first
            plane.ensure(pw)
            plane.plane[plane.nrows, :pw] = h_prev
            plane.lo.append(lo_prev)
            plane.width.append(pw)
            plane.nrows += 1
        use_a = not use_a

    path = None
    if keep_traceback:
        assert plane is not None
        path = _wavefront_traceback(
            plane, best_i, best_j, q, s, reward, penalty, go, ge
        )
    return best_score, best_i, best_j, path


def _wavefront_traceback(
    plane: _BandPlane,
    bi: int,
    bj: int,
    q: np.ndarray,
    s: np.ndarray,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
) -> np.ndarray:
    """Vectorized op-path reconstruction from the dense band plane.

    Follows exactly the reference traceback's predecessor order — diagonal
    first, then vertical gaps by increasing length, then horizontal — but
    consumes *runs*: diagonal steps are validated in chunks with one
    gathered equality test, and each gap scan is one comparison of the
    stored cells against the affine target ramp instead of a scalar loop.
    """
    row_lo = np.array(plane.lo, dtype=np.int64)
    row_w = np.array(plane.width, dtype=np.int64)
    grid = plane.plane
    neg = int(NEG_INF)

    runs_op: List[int] = []
    runs_len: List[int] = []
    i, j = bi, bj
    h_ij = plane.cell(i, j)
    while i > 0 or j > 0:
        if h_ij <= _DEAD:  # pragma: no cover - defensive
            raise RuntimeError(f"traceback entered a dead cell at ({i}, {j})")
        if i > 0 and j > 0:
            # Batch a run of diagonal steps: gather H along the diagonal
            # ending at (i, j) and match the recurrence elementwise.
            t_count = min(i, j, _TB_CHUNK)
            t = np.arange(t_count + 1, dtype=np.int64)
            rows = i - t
            cols = j - t - row_lo[rows]
            valid = (cols >= 0) & (cols < row_w[rows])
            vals = np.where(valid, grid[rows, np.where(valid, cols, 0)], neg)
            vals[0] = h_ij
            qs = q[i - t_count : i][::-1]
            ss = s[j - t_count : j][::-1]
            is_match = (qs == ss) & (qs < 4) & (ss < 4)
            subs = np.where(is_match, np.int64(reward), np.int64(penalty))
            ok = vals[:-1] == vals[1:] + subs
            n_diag = int(ok.argmin()) if not ok.all() else t_count
            if n_diag > 0:
                runs_op.append(OP_DIAG)
                runs_len.append(n_diag)
                i -= n_diag
                j -= n_diag
                h_ij = int(vals[n_diag])
                if n_diag == t_count:
                    continue  # chunk exhausted mid-run: re-enter with a new chunk
            # Diagonal step ruled out at (i, j); fall through to gap scans.
        moved = False
        if i > 0:
            # Vertical: H[i][j] == H[i-g][j] - go - ge*g, smallest g first.
            g0 = 1
            while g0 <= i and not moved:
                g1 = min(i, g0 + _TB_CHUNK - 1)
                g = np.arange(g0, g1 + 1, dtype=np.int64)
                rows = i - g
                cols = j - row_lo[rows]
                valid = (cols >= 0) & (cols < row_w[rows])
                vals = np.where(valid, grid[rows, np.where(valid, cols, 0)], neg)
                hit = vals == h_ij + gap_open + gap_extend * g
                if hit.any():
                    k = int(hit.argmax())
                    glen = g0 + k
                    runs_op.append(OP_SGAP)
                    runs_len.append(glen)
                    i -= glen
                    h_ij = int(vals[k])
                    moved = True
                g0 = g1 + 1
        if moved:
            continue
        if j > 0:
            # Horizontal: H[i][j] == H[i][j-g] - go - ge*g within row i.
            lo = int(row_lo[i])
            w = int(row_w[i])
            g0 = 1
            while g0 <= j and not moved:
                g1 = min(j, g0 + _TB_CHUNK - 1)
                g = np.arange(g0, g1 + 1, dtype=np.int64)
                cols = j - g - lo
                valid = (cols >= 0) & (cols < w)
                vals = np.where(valid, grid[i, np.where(valid, cols, 0)], neg)
                hit = vals == h_ij + gap_open + gap_extend * g
                if hit.any():
                    k = int(hit.argmax())
                    glen = g0 + k
                    runs_op.append(OP_QGAP)
                    runs_len.append(glen)
                    j -= glen
                    h_ij = int(vals[k])
                    moved = True
                elif cols[-1] < 0:
                    break  # scanned past the stored band's left edge: no hit possible
                g0 = g1 + 1
        if not moved:  # pragma: no cover - would indicate a DP bug
            raise RuntimeError(f"no predecessor found for cell ({i}, {j})")
    if not runs_op:
        return np.zeros(0, dtype=np.uint8)
    ops = np.repeat(
        np.array(runs_op, dtype=np.uint8), np.array(runs_len, dtype=np.int64)
    )
    return ops[::-1].copy()
