"""Property-based tests for the sequence substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.alphabet import (
    ALPHABET_SIZE,
    decode,
    encode,
    reverse_complement,
)
from repro.sequence.mutate import MutationModel, apply_mutations

dna = st.text(alphabet="ACGT", min_size=0, max_size=300)
dna_with_n = st.text(alphabet="ACGTN", min_size=0, max_size=300)
seeds = st.integers(min_value=0, max_value=2**31)


class TestAlphabetProperties:
    @given(dna_with_n)
    def test_encode_decode_round_trip(self, s):
        assert decode(encode(s)) == s

    @given(dna)
    def test_reverse_complement_involution(self, s):
        codes = encode(s)
        assert np.array_equal(reverse_complement(reverse_complement(codes)), codes)

    @given(dna)
    def test_reverse_complement_reverses_length_and_validity(self, s):
        rc = reverse_complement(encode(s))
        assert rc.shape[0] == len(s)
        assert (rc < ALPHABET_SIZE).all()

    @given(dna)
    def test_rc_of_concatenation(self, s):
        """rc(a + b) == rc(b) + rc(a)."""
        half = len(s) // 2
        a, b = encode(s[:half]), encode(s[half:])
        whole = reverse_complement(encode(s))
        parts = np.concatenate([reverse_complement(b), reverse_complement(a)])
        assert np.array_equal(whole, parts)


class TestMutationProperties:
    @given(dna.filter(lambda s: len(s) >= 10), seeds, st.floats(0.0, 0.4))
    @settings(max_examples=50)
    def test_substitution_only_preserves_length(self, s, seed, rate):
        rng = np.random.default_rng(seed)
        codes = encode(s)
        out = apply_mutations(rng, codes, MutationModel(substitution_rate=rate))
        assert out.shape == codes.shape
        assert (out < ALPHABET_SIZE).all()

    @given(dna.filter(lambda s: len(s) >= 10), seeds)
    @settings(max_examples=50)
    def test_indels_bound_length_change(self, s, seed):
        rng = np.random.default_rng(seed)
        codes = encode(s)
        model = MutationModel(
            substitution_rate=0.0, insertion_rate=0.1, deletion_rate=0.1, max_indel_length=2
        )
        out = apply_mutations(rng, codes, model)
        # deletions can at most remove everything; insertions at most
        # max_indel_length per base
        assert 0 <= out.size <= codes.size * (1 + 2)

    @given(dna, seeds)
    @settings(max_examples=30)
    def test_identity_model_is_identity(self, s, seed):
        rng = np.random.default_rng(seed)
        codes = encode(s)
        assert np.array_equal(apply_mutations(rng, codes, MutationModel.identity()), codes)
