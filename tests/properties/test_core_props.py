"""Property-based tests for Orion's fragmentation."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fragmenter import fragment_query
from repro.sequence.alphabet import random_bases
from repro.sequence.records import SequenceRecord


@st.composite
def fragmentation_case(draw):
    n = draw(st.integers(min_value=1, max_value=5000))
    frag = draw(st.integers(min_value=2, max_value=2000))
    overlap = draw(st.integers(min_value=0, max_value=frag - 1))
    return n, frag, overlap


class TestFragmentationInvariants:
    @given(fragmentation_case(), st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_coverage_overlap_and_order(self, case, seed):
        n, frag_len, overlap = case
        rng = np.random.default_rng(seed)
        query = SequenceRecord(seq_id="q", codes=random_bases(rng, n))
        frags = fragment_query(query, frag_len, overlap)

        # coverage: exact, in order, no gaps
        assert frags[0].offset == 0
        assert frags[-1].end == n
        for a, b in zip(frags, frags[1:]):
            assert b.offset > a.offset
            assert b.offset <= a.end  # no gap
            overlap_actual = a.end - b.offset
            assert overlap_actual >= overlap
            if not b.is_last:
                assert overlap_actual == overlap

        # flags: exactly one first, one last
        assert sum(f.is_first for f in frags) == 1
        assert sum(f.is_last for f in frags) == 1
        # equal size except possibly the last
        if len(frags) > 1:
            assert all(f.length == frag_len for f in frags[:-1])

        # content equals the query slice
        for f in frags:
            assert np.array_equal(f.record.codes, query.codes[f.offset : f.end])

    @given(fragmentation_case())
    def test_short_query_unfragmented(self, case):
        n, frag_len, overlap = case
        assume(n <= frag_len)
        rng = np.random.default_rng(0)
        query = SequenceRecord(seq_id="q", codes=random_bases(rng, n))
        frags = fragment_query(query, frag_len, overlap)
        assert len(frags) == 1
