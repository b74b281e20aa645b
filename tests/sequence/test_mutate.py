"""Tests for the mutation model."""

import numpy as np
import pytest

from repro.sequence.alphabet import encode, random_bases
from repro.sequence.mutate import MutationModel, apply_mutations


class TestMutationModel:
    def test_identity_preset(self):
        m = MutationModel.identity()
        assert (m.substitution_rate, m.insertion_rate, m.deletion_rate) == (0.0, 0.0, 0.0)

    def test_presets_ordered_by_divergence(self):
        def divergence(m):
            return m.substitution_rate + m.insertion_rate + m.deletion_rate

        assert divergence(MutationModel.close_homolog()) < divergence(MutationModel.distant_homolog())

    @pytest.mark.parametrize("field", ["substitution_rate", "insertion_rate", "deletion_rate"])
    def test_rates_validated(self, field):
        with pytest.raises(ValueError):
            MutationModel(**{field: 1.5})

    def test_combined_indel_rate_capped(self):
        with pytest.raises(ValueError, match="not a homology"):
            MutationModel(insertion_rate=0.3, deletion_rate=0.3)


class TestApplyMutations:
    def test_identity_is_exact_copy(self):
        rng = np.random.default_rng(0)
        codes = random_bases(rng, 500)
        out = apply_mutations(rng, codes, MutationModel.identity())
        assert np.array_equal(out, codes)
        assert out is not codes  # still a copy, never aliased

    def test_substitution_rate_approx(self):
        rng = np.random.default_rng(1)
        codes = random_bases(rng, 50_000)
        out = apply_mutations(rng, codes, MutationModel(substitution_rate=0.1))
        frac = (out != codes).mean()
        assert 0.08 < frac < 0.12

    def test_substitutions_always_change_base(self):
        rng = np.random.default_rng(2)
        codes = random_bases(rng, 5000)
        out = apply_mutations(rng, codes, MutationModel(substitution_rate=1.0))
        assert np.all(out != codes)

    def test_insertions_grow(self):
        rng = np.random.default_rng(3)
        codes = random_bases(rng, 10_000)
        out = apply_mutations(
            rng, codes, MutationModel(substitution_rate=0.0, insertion_rate=0.05)
        )
        assert out.size > codes.size

    def test_deletions_shrink(self):
        rng = np.random.default_rng(4)
        codes = random_bases(rng, 10_000)
        out = apply_mutations(
            rng, codes, MutationModel(substitution_rate=0.0, deletion_rate=0.05)
        )
        assert out.size < codes.size

    def test_output_stays_valid(self):
        rng = np.random.default_rng(5)
        codes = random_bases(rng, 2000)
        out = apply_mutations(rng, codes, MutationModel.distant_homolog())
        assert np.all(out < 4)

    def test_empty_input(self):
        rng = np.random.default_rng(6)
        out = apply_mutations(rng, encode(""), MutationModel.close_homolog())
        assert out.size == 0
