"""Tests for synthetic genome/database/query generation."""

import numpy as np
import pytest

from repro.sequence.alphabet import ALPHABET_SIZE, encode
from repro.sequence.generator import (
    GenomeSpec,
    HomologySpec,
    make_database,
    make_genome,
    make_query_with_homologies,
)
from repro.sequence.mutate import MutationModel


class TestMakeGenome:
    def test_length(self):
        g = make_genome(1, GenomeSpec(length=5000))
        assert len(g.record) == 5000

    def test_deterministic(self):
        a = make_genome(1, GenomeSpec(length=1000)).record
        b = make_genome(1, GenomeSpec(length=1000)).record
        assert np.array_equal(a.codes, b.codes)

    def test_gc_respected(self):
        g = make_genome(2, GenomeSpec(length=100_000, gc=0.6))
        codes = g.record.codes
        gc = np.isin(codes, encode("CG")).sum() / np.count_nonzero(codes < ALPHABET_SIZE)
        assert abs(gc - 0.6) < 0.02

    def test_repeats_create_duplicated_content(self):
        spec = GenomeSpec(length=20_000, repeat_family_count=2, repeat_length=300, repeat_copies=8)
        g = make_genome(3, spec)
        assert len(g.record) == 20_000

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            GenomeSpec(length=0)


class TestMakeDatabase:
    def test_counts_and_names(self):
        db = make_database(1, num_sequences=10, mean_length=2000, name="d")
        assert db.num_sequences == 10
        assert db.records[0].seq_id == "d.seq00000"

    def test_mean_length_approx(self):
        db = make_database(2, num_sequences=200, mean_length=3000)
        mean = db.total_length / db.num_sequences
        assert 2000 < mean < 4500  # lognormal, loose band

    def test_min_length_floor(self):
        db = make_database(3, num_sequences=50, mean_length=200, min_length=150)
        assert int(db.lengths().min()) >= 150

    def test_zero_cv_uniform(self):
        db = make_database(4, num_sequences=5, mean_length=1000, length_cv=0.0)
        assert set(db.lengths().tolist()) == {1000}

    def test_deterministic(self):
        a = make_database(5, num_sequences=4, mean_length=500)
        b = make_database(5, num_sequences=4, mean_length=500)
        assert [r.text for r in a] == [r.text for r in b]


class TestMakeQueryWithHomologies:
    def test_no_homologies(self):
        db = make_database(1, num_sequences=3, mean_length=1000)
        q, truth = make_query_with_homologies(2, 5000, db, [])
        assert len(q) == 5000
        assert truth == []

    def test_ground_truth_matches_content(self):
        """The query interval must hold the evolved donor copy exactly."""
        db = make_database(1, num_sequences=5, mean_length=4000)
        q, truth = make_query_with_homologies(
            3, 30_000, db,
            [HomologySpec(length=600, model=MutationModel.identity())] * 2,
        )
        assert len(truth) == 2
        for t in truth:
            qs, qe = t.query_interval
            ss, se = t.subject_interval
            donor = db[t.subject_id].codes[ss:se]
            # identity model: planted copy is literal
            assert np.array_equal(q.codes[qs:qe], donor)

    def test_intervals_disjoint_and_ordered(self):
        db = make_database(1, num_sequences=5, mean_length=4000)
        q, truth = make_query_with_homologies(
            4, 40_000, db, [HomologySpec(length=500)] * 4
        )
        intervals = [t.query_interval for t in truth]
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2

    def test_donor_selection_skips_short_sequences(self):
        db = make_database(5, num_sequences=10, mean_length=800, min_length=100)
        long_enough = max(int(l) for l in db.lengths())
        q, truth = make_query_with_homologies(
            6, 20_000, db, [HomologySpec(length=long_enough)]
        )
        lo, hi = truth[0].subject_interval
        assert hi - lo == long_enough

    def test_impossible_homology_rejected(self):
        db = make_database(1, num_sequences=3, mean_length=500, length_cv=0.0)
        with pytest.raises(ValueError, match="long enough"):
            make_query_with_homologies(2, 10_000, db, [HomologySpec(length=5000)])

    def test_too_many_homologies_rejected(self):
        db = make_database(1, num_sequences=3, mean_length=5000)
        with pytest.raises(ValueError):
            make_query_with_homologies(2, 1000, db, [HomologySpec(length=600)] * 2)

    def test_deterministic(self):
        db = make_database(1, num_sequences=5, mean_length=4000)
        q1, t1 = make_query_with_homologies(7, 20_000, db, [HomologySpec(length=400)])
        q2, t2 = make_query_with_homologies(7, 20_000, db, [HomologySpec(length=400)])
        assert np.array_equal(q1.codes, q2.codes)
        assert t1 == t2
