"""Differential suite: wavefront kernel vs the row-loop reference oracle.

The batched wavefront kernel (``repro.blast.wavefront``) must be
*byte-identical* to the row-loop oracle in ``tests/conftest.py`` — same
scores, same endpoints, same op paths — under both drop rules, across random
scoring schemes, x-drop values, anchor positions (including the sequence
edges, which make a half empty), and adversarial sequence shapes. Every test
here runs both kernels on the same input and asserts full equality of the
result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.gapped import extend_gapped
from repro.sequence.alphabet import encode, random_bases
from tests.conftest import extend_gapped_rowloop

dna = st.text(alphabet="ACGTN", min_size=0, max_size=80)
seeds = st.integers(min_value=0, max_value=2**31)


def assert_kernels_identical(q, s, aq, as_, reward, penalty, go, ge, xd, absolute_drop):
    a = extend_gapped_rowloop(
        q, s, aq, as_, reward, penalty, go, ge, xd, absolute_drop=absolute_drop,
    )
    b = extend_gapped(
        q, s, aq, as_, reward, penalty, go, ge, xd, absolute_drop=absolute_drop,
    )
    assert a.score == b.score
    assert (a.q_start, a.q_end, a.s_start, a.s_end) == (
        b.q_start, b.q_end, b.s_start, b.s_end,
    )
    assert a.path is not None and b.path is not None
    assert np.array_equal(a.path, b.path)
    return a


class TestDifferentialHypothesis:
    @given(dna, dna, seeds, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_random_sequences_all_parameters(self, q, s, seed, absolute_drop):
        """Random sequences × random scoring scheme × random anchor."""
        rng = np.random.default_rng(seed)
        qc, sc = encode(q), encode(s)
        aq = int(rng.integers(0, len(q) + 1))
        as_ = int(rng.integers(0, len(s) + 1))
        reward = int(rng.integers(1, 5))
        penalty = -int(rng.integers(1, 6))
        go = int(rng.integers(0, 8))
        ge = int(rng.integers(1, 4))
        xd = int(rng.integers(0, 40))
        assert_kernels_identical(qc, sc, aq, as_, reward, penalty, go, ge, xd, absolute_drop)

    @given(seeds, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_planted_homology(self, seed, absolute_drop):
        """Pairs sharing a planted homologous block — long live bands."""
        rng = np.random.default_rng(seed)
        mq = int(rng.integers(20, 90))
        q = random_bases(rng, mq)
        block_lo = int(rng.integers(0, mq // 2))
        block_hi = int(rng.integers(block_lo + 5, mq))
        s = np.concatenate([
            random_bases(rng, int(rng.integers(0, 20))),
            q[block_lo:block_hi],
            random_bases(rng, int(rng.integers(0, 20))),
        ])
        # Mutate a couple of bases so the DP sees mismatches/gaps too.
        if s.shape[0] > 4:
            k = int(rng.integers(0, s.shape[0]))
            s[k] = (s[k] + 1) % 4
        aq = int(rng.integers(0, mq + 1))
        as_ = int(rng.integers(0, s.shape[0] + 1))
        xd = int(rng.integers(0, 30))
        assert_kernels_identical(q, s, aq, as_, 1, -3, 5, 2, xd, absolute_drop)


class TestDifferentialEdgeCases:
    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_empty_halves(self, absolute_drop):
        """Anchors at sequence edges leave one half empty."""
        q = encode("ACGTACGTAC")
        s = encode("ACGTTCGTAC")
        for aq, as_ in [(0, 0), (10, 10), (0, 10), (10, 0), (0, 5), (10, 5)]:
            assert_kernels_identical(q, s, aq, as_, 1, -3, 5, 2, 15, absolute_drop)

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_both_sequences_empty(self, absolute_drop):
        empty = np.zeros(0, dtype=np.uint8)
        ext = assert_kernels_identical(empty, empty, 0, 0, 1, -3, 5, 2, 15, absolute_drop)
        assert ext.score == 0
        assert ext.path.shape[0] == 0

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_xdrop_zero(self, absolute_drop):
        """x_drop=0 prunes everything but exact continuation."""
        q = encode("ACGTACGT")
        s = encode("ACGTTCGT")
        assert_kernels_identical(q, s, 4, 4, 1, -3, 5, 2, 0, absolute_drop)

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_ambiguous_codes_mismatch(self, absolute_drop):
        """N (code 4) never matches, not even against itself."""
        q = encode("ACGTNNNNACGT")
        s = encode("ACGTNNNNACGT")
        assert_kernels_identical(q, s, 6, 6, 1, -3, 5, 2, 15, absolute_drop)

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_gap_open_zero(self, absolute_drop):
        """Linear gap costs (gap_open=0) change which branch ties win."""
        rng = np.random.default_rng(21)
        base = random_bases(rng, 50)
        q = base.copy()
        s = np.concatenate([base[:25], base[28:]])  # deletion
        assert_kernels_identical(q, s, 10, 10, 1, -2, 0, 1, 20, absolute_drop)

    def test_deep_dip_absolute_vs_relative(self):
        """The drop-rule divergence case: both kernels agree under each rule."""
        rng = np.random.default_rng(4)
        left = random_bases(rng, 30)
        right = random_bases(rng, 30)
        dip = random_bases(rng, 7)
        q = np.concatenate([left, dip, right])
        s = np.concatenate([left, (dip + 1) % 4, right])
        rel = assert_kernels_identical(q, s, 0, 0, 1, -3, 5, 2, 15, False)
        abs_ = assert_kernels_identical(q, s, 0, 0, 1, -3, 5, 2, 40, True)
        assert abs_.q_end > rel.q_end  # sanity: absolute mode crossed the dip

    def test_long_reference_workload_prefix(self):
        """A sliced-down version of the benchmark workload (long live band)."""
        rng = np.random.default_rng(42)
        query = random_bases(rng, 5_000)
        subject = np.concatenate([
            random_bases(rng, 2_000), query[1_000:3_000], random_bases(rng, 2_000)
        ])
        ext = assert_kernels_identical(query, subject, 2_000, 3_000, 1, -3, 5, 2, 15, False)
        assert ext.score >= 1_900  # found the planted 2 kb homology
