"""Tests for banded gapped x-drop extension.

The vectorized banded DP is checked against an unpruned naive DP (equal when
x_drop is large enough to disable pruning) and for internal consistency
(traceback path rescoring reproduces the DP score exactly).
"""

import numpy as np
import pytest

from repro.blast.gapped import extend_gapped
from repro.blast.hsp import OP_DIAG
from repro.blast.wavefront import wavefront_half_extension
from repro.sequence.alphabet import encode, random_bases
from tests.conftest import extend_gapped_rowloop, rowloop_half_extension, score_path

#: The production kernel and the row-loop oracle, by name.
KERNELS = {
    "wavefront": (extend_gapped, wavefront_half_extension),
    "rowloop": (extend_gapped_rowloop, rowloop_half_extension),
}

PARAMS = dict(reward=1, penalty=-3, gap_open=5, gap_extend=2)


def naive_best_extension(q, s, reward, penalty, gap_open, gap_extend):
    """Unpruned affine 'extension' DP: best prefix-alignment score from (0,0)."""
    m, n = len(q), len(s)
    neg = -(10**9)
    H = np.full((m + 1, n + 1), neg, dtype=np.int64)
    E = np.full((m + 1, n + 1), neg, dtype=np.int64)
    F = np.full((m + 1, n + 1), neg, dtype=np.int64)
    H[0, 0] = 0
    for j in range(1, n + 1):
        E[0, j] = -(gap_open + gap_extend * j)
        H[0, j] = E[0, j]
    for i in range(1, m + 1):
        F[i, 0] = -(gap_open + gap_extend * i)
        H[i, 0] = F[i, 0]
        for j in range(1, n + 1):
            sub = reward if (q[i - 1] == s[j - 1] and q[i - 1] < 4) else penalty
            E[i, j] = max(E[i, j - 1] - gap_extend, H[i, j - 1] - gap_open - gap_extend)
            F[i, j] = max(F[i - 1, j] - gap_extend, H[i - 1, j] - gap_open - gap_extend)
            H[i, j] = max(H[i - 1, j - 1] + sub, E[i, j], F[i, j])
    return max(0, int(H.max()))


class TestAgainstNaiveDP:
    @pytest.mark.parametrize("seed", range(6))
    def test_large_xdrop_equals_unpruned(self, seed):
        rng = np.random.default_rng(seed)
        q = random_bases(rng, 40)
        s = random_bases(rng, 40)
        ext = extend_gapped(q, s, 0, 0, x_drop=10_000, keep_traceback=False, **PARAMS)
        assert ext.score == naive_best_extension(q, s, **PARAMS)

    @pytest.mark.parametrize("seed", range(4))
    def test_homologous_pair_large_xdrop(self, seed):
        rng = np.random.default_rng(100 + seed)
        base = random_bases(rng, 60)
        q = base.copy()
        s = base.copy()
        # a few substitutions and a small deletion in s
        s[10] = (s[10] + 1) % 4
        s = np.concatenate([s[:30], s[33:]])
        ext = extend_gapped(q, s, 0, 0, x_drop=10_000, keep_traceback=False, **PARAMS)
        assert ext.score == naive_best_extension(q, s, **PARAMS)


class TestTracebackConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_path_rescoring_matches_dp_score(self, seed):
        rng = np.random.default_rng(200 + seed)
        base = random_bases(rng, 300)
        q = base.copy()
        s = base.copy()
        hit = rng.random(300) < 0.05
        s[hit] = (s[hit] + 1) % 4
        anchor = 150
        ext = extend_gapped(q, s, anchor, anchor, x_drop=15, **PARAMS)
        assert ext.path is not None
        rescored = score_path(
            ext.path, q, s, ext.q_start, ext.s_start,
            PARAMS["reward"], PARAMS["penalty"], PARAMS["gap_open"], PARAMS["gap_extend"],
        )
        assert rescored == ext.score

    def test_path_consumption_matches_intervals(self):
        rng = np.random.default_rng(9)
        base = random_bases(rng, 200)
        q, s = base.copy(), base.copy()
        s = np.concatenate([s[:100], random_bases(rng, 2), s[100:]])  # insertion
        ext = extend_gapped(q, s, 50, 50, x_drop=15, **PARAMS)
        assert ext.path is not None
        from repro.blast.hsp import OP_QGAP, OP_SGAP

        q_span = int(np.count_nonzero(ext.path != OP_QGAP))
        s_span = int(np.count_nonzero(ext.path != OP_SGAP))
        assert q_span == ext.q_span
        assert s_span == ext.s_span


class TestExtensionBehaviour:
    def test_perfect_match_full_span(self):
        q = encode("ACGTACGTACGTACGT")
        ext = extend_gapped(q, q, 8, 8, x_drop=15, **PARAMS)
        assert ext.score == 16
        assert (ext.q_start, ext.q_end) == (0, 16)
        assert np.all(ext.path == OP_DIAG)

    def test_anchor_at_edges(self):
        q = encode("ACGTACGT")
        ext = extend_gapped(q, q, 0, 0, x_drop=15, **PARAMS)
        assert ext.score == 8
        ext2 = extend_gapped(q, q, 8, 8, x_drop=15, **PARAMS)
        assert ext2.score == 8

    def test_bad_anchor_rejected(self):
        q = encode("ACGT")
        with pytest.raises(ValueError):
            extend_gapped(q, q, 5, 0, x_drop=15, **PARAMS)

    def test_no_homology_zero_extension(self):
        q = encode("A" * 30)
        s = encode("C" * 30)
        ext = extend_gapped(q, s, 15, 15, x_drop=15, **PARAMS)
        assert ext.score == 0
        assert ext.q_start == ext.q_end == 15

    def test_gap_crossing(self):
        """Two matching blocks separated by an insertion in the subject."""
        rng = np.random.default_rng(3)
        block = random_bases(rng, 40)
        q = np.concatenate([block, block])
        s = np.concatenate([block, random_bases(rng, 3), block])
        ext = extend_gapped(q, s, 10, 10, x_drop=20, **PARAMS)
        # 80 matches minus one gap of 3: 80 - (5 + 3*2) = 69
        assert ext.score == 69
        assert ext.q_span == 80
        assert ext.s_span == 83


class TestParameterValidation:
    """Regression: degenerate affine params must fail fast with ValueError.

    ``gap_extend=0`` used to reach ``budget // gap_extend`` inside the DP's
    ``gap_reach`` and die with an uncaught ``ZeroDivisionError``.
    """

    def setup_method(self):
        self.q = encode("ACGTACGT")

    def test_zero_gap_extend_raises_value_error(self):
        with pytest.raises(ValueError, match="gap_extend"):
            extend_gapped(self.q, self.q, 4, 4, 1, -3, 5, 0, 15)

    def test_negative_gap_extend_raises_value_error(self):
        with pytest.raises(ValueError, match="gap_extend"):
            extend_gapped(self.q, self.q, 4, 4, 1, -3, 5, -2, 15)

    def test_negative_gap_open_raises_value_error(self):
        with pytest.raises(ValueError, match="gap_open"):
            extend_gapped(self.q, self.q, 4, 4, 1, -3, -1, 2, 15)

    def test_negative_x_drop_raises_value_error(self):
        with pytest.raises(ValueError, match="x_drop"):
            extend_gapped(self.q, self.q, 4, 4, 1, -3, 5, 2, -1)

    @pytest.mark.parametrize("kernel", ["rowloop", "wavefront"])
    def test_validation_applies_to_both_kernels(self, kernel):
        extend = KERNELS[kernel][0]
        with pytest.raises(ValueError, match="gap_extend"):
            extend(self.q, self.q, 4, 4, 1, -3, 5, 0, 15)

    def test_zero_gap_open_is_legal(self):
        ext = extend_gapped(self.q, self.q, 4, 4, 1, -3, 0, 2, 15)
        assert ext.score == 8


class TestReversedHalfMaterialization:
    """Regression: the left half must see a contiguous reversed prefix.

    ``q_codes[:anchor][::-1]`` is a negative-stride view; ``extend_gapped``
    materializes it once per call. Same alignment either way — this pins the
    behaviour while exercising anchors at every position of a small pair.
    """

    @pytest.mark.parametrize("kernel", ["rowloop", "wavefront"])
    def test_every_anchor_matches_negative_stride_views(self, kernel):
        extend, half = KERNELS[kernel]
        rng = np.random.default_rng(11)
        base = random_bases(rng, 64)
        q, s = base.copy(), base.copy()
        s[20] = (s[20] + 1) % 4
        for anchor in range(0, 65, 8):
            ext = extend(q, s, anchor, anchor, x_drop=15, **PARAMS)
            # Reference: the pre-fix behaviour — feed the raw negative-stride
            # reversed views straight into the half kernel.
            l_score, l_qi, l_sj, l_path = half(
                q[:anchor][::-1], s[:anchor][::-1],
                PARAMS["reward"], PARAMS["penalty"],
                PARAMS["gap_open"], PARAMS["gap_extend"], 15, False, True,
            )
            r_score, r_qi, r_sj, r_path = half(
                q[anchor:], s[anchor:],
                PARAMS["reward"], PARAMS["penalty"],
                PARAMS["gap_open"], PARAMS["gap_extend"], 15, False, True,
            )
            assert ext.score == l_score + r_score
            assert (ext.q_start, ext.q_end) == (anchor - l_qi, anchor + r_qi)
            assert (ext.s_start, ext.s_end) == (anchor - l_sj, anchor + r_sj)
            expected_path = np.concatenate([l_path[::-1], r_path])
            assert np.array_equal(ext.path, expected_path)

    def test_non_contiguous_input_accepted(self):
        """Strided (non-contiguous) inputs work: views into larger arrays."""
        rng = np.random.default_rng(12)
        big = random_bases(rng, 120)
        q = big[::2]  # stride-2 view, 60 bases
        s = np.ascontiguousarray(q)
        ext = extend_gapped(q, s, 30, 30, x_drop=15, **PARAMS)
        assert ext.score == 60


class TestAbsoluteDrop:
    def test_speculative_extends_through_deep_dip(self):
        """A dip deeper than x_drop (relative) but shallower than the
        absolute floor: relative mode stops at the dip, absolute crosses."""
        rng = np.random.default_rng(4)
        left = random_bases(rng, 30)
        right = random_bases(rng, 30)
        dip = random_bases(rng, 7)
        dip_bad = (dip + 1) % 4  # 7 mismatches = -21 against x_drop 15
        q = np.concatenate([left, dip, right])
        s = np.concatenate([left, dip_bad, right])
        rel = extend_gapped(q, s, 0, 0, x_drop=15, absolute_drop=False, **PARAMS)
        abs_ = extend_gapped(q, s, 0, 0, x_drop=40, absolute_drop=True, **PARAMS)
        assert rel.q_end <= 40  # stopped at/near the dip
        assert abs_.q_end == 67  # crossed it (peak at the far end)

    def test_absolute_never_below_floor(self):
        q = encode("A" * 50)
        s = encode("C" * 50)
        ext = extend_gapped(q, s, 0, 0, x_drop=10, absolute_drop=True, **PARAMS)
        assert ext.score == 0
