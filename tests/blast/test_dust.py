"""Tests for DUST-like low-complexity masking."""

import numpy as np
import pytest

from repro.blast.dust import (
    dust_score,
    low_complexity_intervals,
    mask_low_complexity,
)
from repro.blast.engine import BlastEngine
from repro.blast.params import BlastParams
from repro.sequence.alphabet import UNKNOWN_CODE, encode, random_bases
from repro.sequence.records import Database, SequenceRecord


class TestDustScore:
    def test_mononucleotide_run_scores_high(self):
        assert dust_score(encode("A" * 64)) > 20

    def test_random_sequence_scores_low(self):
        rng = np.random.default_rng(0)
        assert dust_score(random_bases(rng, 64)) < 2.0

    def test_dinucleotide_repeat_scores_high(self):
        assert dust_score(encode("AT" * 32)) > 10

    def test_tiny_window_zero(self):
        assert dust_score(encode("ACG")) == 0.0


class TestLowComplexityIntervals:
    def test_poly_a_region_found(self):
        rng = np.random.default_rng(1)
        codes = np.concatenate([random_bases(rng, 300), encode("A" * 150), random_bases(rng, 300)])
        intervals = low_complexity_intervals(codes)
        assert intervals
        lo, hi = intervals[0]
        assert lo < 450 and hi > 300  # covers (at least part of) the run

    def test_random_sequence_unmasked(self):
        rng = np.random.default_rng(2)
        assert low_complexity_intervals(random_bases(rng, 2000)) == []

    def test_intervals_merged(self):
        codes = encode("AT" * 500)  # one long repeat, many windows
        intervals = low_complexity_intervals(codes)
        assert len(intervals) == 1
        assert intervals[0] == (0, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            low_complexity_intervals(encode("ACGT" * 50), window=4)
        with pytest.raises(ValueError):
            low_complexity_intervals(encode("ACGT" * 50), threshold=0)


class TestMaskLowComplexity:
    def test_masked_positions_are_sentinel(self):
        codes = np.concatenate([encode("A" * 100), encode("ACGT" * 50)])
        masked, intervals = mask_low_complexity(codes)
        assert intervals
        lo, hi = intervals[0]
        assert np.all(masked[lo:hi] == UNKNOWN_CODE)

    def test_original_untouched(self):
        codes = encode("A" * 200)
        masked, _ = mask_low_complexity(codes)
        assert np.all(codes < 4)  # input unchanged
        assert np.all(masked == UNKNOWN_CODE)

    def test_no_mask_no_copy_needed(self):
        rng = np.random.default_rng(3)
        codes = random_bases(rng, 500)
        masked, intervals = mask_low_complexity(codes)
        assert intervals == []
        assert np.array_equal(masked, codes)

class TestDustInEngine:
    def test_poly_a_match_suppressed_but_real_homology_kept(self):
        """A shared poly-A run must not be reported when dust=True, while a
        genuine (complex) homology still is."""
        rng = np.random.default_rng(4)
        real = random_bases(rng, 300)
        query = SequenceRecord(
            seq_id="q",
            codes=np.concatenate([random_bases(rng, 200), encode("A" * 200),
                                  random_bases(rng, 100), real, random_bases(rng, 100)]),
        )
        subject = SequenceRecord(
            seq_id="s",
            codes=np.concatenate([encode("A" * 200), random_bases(rng, 150), real]),
        )
        db = Database([subject])
        plain = BlastEngine(BlastParams()).search(query, db)
        dusted = BlastEngine(BlastParams(dust=True)).search(query, db)

        def has_poly_a(res):
            return any(a.q_start < 400 and a.q_end > 200 and a.s_start < 200 for a in res.alignments)

        def has_real(res):
            return any(a.q_end > 500 and a.score > 200 for a in res.alignments)

        assert has_poly_a(plain)
        assert not has_poly_a(dusted)
        assert has_real(plain) and has_real(dusted)
