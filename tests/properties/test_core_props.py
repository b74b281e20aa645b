"""Property-based tests for Orion's fragmentation and sorting."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blast.hsp import Alignment
from repro.core.fragmenter import fragment_query
from repro.core.sortmr import parallel_sort_alignments
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


def _aln(evalue, score, subject):
    return Alignment(
        query_id="q", subject_id=subject, q_start=0, q_end=5, s_start=0, s_end=5,
        score=score, evalue=evalue, bits=float(score),
    )


class TestSampleSortProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-30, max_value=10.0, allow_nan=False),
                st.integers(min_value=1, max_value=1000),
                st.sampled_from(["s1", "s2", "s3"]),
            ),
            max_size=80,
        ),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60)
    def test_equals_global_sort(self, rows, num_tasks):
        alns = [_aln(e, sc, sub) for e, sc, sub in rows]
        out, _ = parallel_sort_alignments(alns, num_tasks=num_tasks)
        assert [a.sort_key() for a in out] == sorted(a.sort_key() for a in alns)
        assert len(out) == len(alns)
