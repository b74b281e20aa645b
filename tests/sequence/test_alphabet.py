"""Tests for the 2-bit nucleotide alphabet."""

import numpy as np
import pytest

from repro.sequence.alphabet import (
    ALPHABET_SIZE,
    UNKNOWN_CODE,
    complement,
    decode,
    encode,
    random_bases,
    reverse_complement,
)


class TestEncodeDecode:
    def test_round_trip(self):
        s = "ACGTACGTTTGCA"
        assert decode(encode(s)) == s

    def test_lowercase_accepted(self):
        assert decode(encode("acgt")) == "ACGT"

    def test_codes_match_base_order(self):
        assert encode("ACGT").tolist() == [0, 1, 2, 3]

    def test_unknown_becomes_sentinel(self):
        codes = encode("ANGT")
        assert codes[1] == UNKNOWN_CODE
        assert decode(codes) == "ANGT"

    def test_bytes_input(self):
        assert decode(encode(b"ACGT")) == "ACGT"

    def test_array_passthrough_no_copy(self):
        arr = encode("ACGT")
        assert encode(arr) is arr

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            encode(np.zeros(4, dtype=np.int64))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            encode(1234)

    def test_empty(self):
        assert decode(encode("")) == ""


class TestComplement:
    def test_pairs(self):
        assert decode(complement(encode("ACGT"))) == "TGCA"

    def test_involution(self):
        codes = encode("ACGTTGCA")
        assert np.array_equal(complement(complement(codes)), codes)

    def test_n_stays_invalid(self):
        assert decode(complement(encode("ANT"))) == "TNA"

    def test_reverse_complement(self):
        assert decode(reverse_complement(encode("AACG"))) == "CGTT"

    def test_reverse_complement_involution(self):
        codes = encode("ACGTTGCAGG")
        assert np.array_equal(reverse_complement(reverse_complement(codes)), codes)


class TestRandomBases:
    def test_length_and_validity(self):
        rng = np.random.default_rng(0)
        codes = random_bases(rng, 1000)
        assert codes.shape == (1000,)
        assert (codes < ALPHABET_SIZE).all()

    def test_gc_content_controlled(self):
        rng = np.random.default_rng(0)
        codes = random_bases(rng, 50_000, gc=0.7)
        gc = np.isin(codes, [1, 2]).mean()
        assert abs(gc - 0.7) < 0.02

    def test_zero_length(self):
        assert random_bases(np.random.default_rng(0), 0).shape == (0,)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_bases(np.random.default_rng(0), -1)

    def test_bad_gc_rejected(self):
        with pytest.raises(ValueError):
            random_bases(np.random.default_rng(0), 10, gc=1.5)
