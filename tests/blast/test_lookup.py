"""Tests for k-mer packing and the query lookup index."""

import numpy as np
import pytest

from repro.blast.lookup import QueryIndex, kmer_codes
from repro.sequence.alphabet import encode, random_bases
from tests.conftest import lookup


def brute_force_matches(q: str, s: str, k: int):
    """Reference: all exact k-mer (q_pos, s_pos) matches by string compare."""
    out = []
    for i in range(len(q) - k + 1):
        for j in range(len(s) - k + 1):
            if q[i : i + k] == s[j : j + k] and "N" not in q[i : i + k]:
                out.append((i, j))
    return sorted(out)


class TestKmerCodes:
    def test_manual_packing(self):
        packed, valid = kmer_codes(encode("ACGT"), 2)
        # AC=0*4+1=1, CG=1*4+2=6, GT=2*4+3=11
        assert packed.tolist() == [1, 6, 11]
        assert valid.all()

    def test_short_sequence_empty(self):
        packed, valid = kmer_codes(encode("AC"), 3)
        assert packed.size == 0 and valid.size == 0

    def test_n_invalidates_overlapping_windows(self):
        _, valid = kmer_codes(encode("AANTT"), 2)
        assert valid.tolist() == [True, False, False, True]

    def test_k_limits(self):
        with pytest.raises(ValueError):
            kmer_codes(encode("ACGT"), 0)
        with pytest.raises(ValueError):
            kmer_codes(encode("A" * 40), 32)

    def test_distinct_kmers_distinct_codes(self):
        rng = np.random.default_rng(0)
        codes = random_bases(rng, 2000)
        packed, valid = kmer_codes(codes, 11)
        # re-decode a couple of windows and verify the packing is injective
        w0 = codes[0:11]
        w5 = codes[5:16]
        same = np.array_equal(w0, w5)
        assert (packed[0] == packed[5]) == same

    @pytest.mark.parametrize("k", [1, 2, 11, 21, 31])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_windowed_matmul_reference(self, k, seed):
        """Horner's-rule packing == the old (n × k) window-matmul packing,
        bit for bit, valid mask included — across k and with N runs."""
        rng = np.random.default_rng(seed)
        codes = random_bases(rng, 500)
        # Sprinkle invalid-sentinel bases so both paths mask windows.
        bad_at = rng.choice(codes.shape[0], size=10, replace=False)
        codes = codes.copy()
        codes[bad_at] = 255

        windows = np.lib.stride_tricks.sliding_window_view(codes, k)
        bad = codes >= 4
        ref_valid = ~np.lib.stride_tricks.sliding_window_view(bad, k).any(axis=1)
        weights = (4 ** np.arange(k - 1, -1, -1)).astype(np.int64)
        ref_packed = np.where(
            np.lib.stride_tricks.sliding_window_view(bad, k),
            np.int64(0),
            windows.astype(np.int64),
        ) @ weights

        packed, valid = kmer_codes(codes, k)
        assert np.array_equal(valid, ref_valid)
        assert np.array_equal(packed, ref_packed)


class TestQueryIndex:
    def test_matches_brute_force(self):
        q = "ACGTACGGTACGT"
        s = "TTACGTACGTTT"
        idx = QueryIndex(encode(q), 4)
        qp, sp = lookup(idx, encode(s))
        assert sorted(zip(qp.tolist(), sp.tolist())) == brute_force_matches(q, s, 4)

    def test_multi_hit_kmers_expand(self):
        q = "AAAAA"  # AAA at positions 0,1,2
        s = "CAAAC"  # AAA at position 1
        idx = QueryIndex(encode(q), 3)
        qp, sp = lookup(idx, encode(s))
        assert sorted(zip(qp.tolist(), sp.tolist())) == [(0, 1), (1, 1), (2, 1)]

    def test_no_matches(self):
        idx = QueryIndex(encode("AAAA"), 3)
        qp, sp = lookup(idx, encode("CCCC"))
        assert qp.size == 0 and sp.size == 0

    def test_empty_query(self):
        idx = QueryIndex(encode("AC"), 4)
        assert idx.num_words == 0
        qp, sp = lookup(idx, encode("ACGTACGT"))
        assert qp.size == 0

    def test_n_in_subject_skipped(self):
        idx = QueryIndex(encode("ACGT"), 4)
        qp, _ = lookup(idx, encode("ACNT" + "ACGT"))
        assert qp.size == 1

    def test_num_words(self):
        assert QueryIndex(encode("ACGTA"), 4).num_words == 2

    def test_random_agreement_with_brute_force(self):
        rng = np.random.default_rng(7)
        q = random_bases(rng, 120)
        s = random_bases(rng, 150)
        from repro.sequence.alphabet import decode

        idx = QueryIndex(q, 5)
        qp, sp = lookup(idx, s)
        assert sorted(zip(qp.tolist(), sp.tolist())) == brute_force_matches(
            decode(q), decode(s), 5
        )
