"""Tests for query fragmentation invariants."""

import numpy as np
import pytest

from repro.core.fragmenter import fragment_query, suggest_fragment_length
from repro.sequence.records import SequenceRecord


def q(n):
    rng = np.random.default_rng(3)
    from repro.sequence.alphabet import random_bases

    return SequenceRecord(seq_id="q", codes=random_bases(rng, n))


class TestFragmentQuery:
    def test_single_fragment_when_short(self):
        frags = fragment_query(q(500), fragment_length=1000, overlap=20)
        assert len(frags) == 1
        assert frags[0].is_first and frags[0].is_last
        assert frags[0].length == 500

    def test_full_coverage_no_gaps(self):
        query = q(10_000)
        frags = fragment_query(query, 1500, 30)
        covered = np.zeros(10_000, dtype=bool)
        for f in frags:
            covered[f.offset : f.end] = True
        assert covered.all()

    def test_exact_overlap_between_neighbours(self):
        frags = fragment_query(q(10_000), 1500, 30)
        for a, b in zip(frags, frags[1:]):
            assert a.end - b.offset >= 30
            if not b.is_last:
                assert a.end - b.offset == 30

    def test_equal_sized_interior_fragments(self):
        frags = fragment_query(q(10_000), 1500, 30)
        for f in frags[:-1]:
            assert f.length == 1500

    def test_content_is_view_of_query(self):
        query = q(5000)
        for f in fragment_query(query, 1200, 16):
            assert np.array_equal(f.record.codes, query.codes[f.offset : f.end])

    def test_edge_flags(self):
        frags = fragment_query(q(10_000), 1500, 30)
        assert frags[0].is_first and not frags[0].is_last
        assert frags[-1].is_last and not frags[-1].is_first
        for f in frags[1:-1]:
            assert not f.is_first and not f.is_last

    def test_fragment_ids(self):
        frags = fragment_query(q(5000), 1200, 16)
        assert frags[0].record.seq_id == "q.frag0000"
        assert frags[2].record.seq_id == "q.frag0002"

    def test_exact_multiple_boundary(self):
        """Query length exactly landing on a stride boundary."""
        frags = fragment_query(q(2970), 1000, 10)  # stride 990: 0, 990, 1980 (ends 2980>2970)
        assert frags[-1].end == 2970
        covered = sum(f.length for f in frags) - sum(
            frags[i].end - frags[i + 1].offset for i in range(len(frags) - 1)
        )
        assert covered == 2970

    def test_validation(self):
        with pytest.raises(ValueError):
            fragment_query(q(100), 0, 0)
        with pytest.raises(ValueError):
            fragment_query(q(100), 10, 10)


class TestSuggestFragmentLength:
    def test_targets_units_per_slot(self):
        # 64 slots * 4 units / 16 shards = 16 fragments
        frag = suggest_fragment_length(
            query_length=1_600_000, overlap=32, num_shards=16, total_slots=64
        )
        assert 90_000 <= frag <= 120_000

    def test_floor_respected(self):
        frag = suggest_fragment_length(
            query_length=10_000, overlap=32, num_shards=64, total_slots=1024,
            min_fragment_length=5_000,
        )
        assert frag >= 5_000

    def test_never_below_overlap_scale(self):
        frag = suggest_fragment_length(
            query_length=100_000, overlap=2000, num_shards=4, total_slots=1024
        )
        assert frag >= 8000

    def test_capped_at_query(self):
        frag = suggest_fragment_length(
            query_length=3000, overlap=16, num_shards=1, total_slots=1
        )
        assert frag <= 3000 + 16
