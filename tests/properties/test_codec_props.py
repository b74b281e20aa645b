"""Property-based tests for the text codecs (CIGAR, tabular)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.formatter import format_tabular_row, parse_tabular
from repro.blast.hsp import (
    OP_DIAG,
    OP_QGAP,
    OP_SGAP,
    Alignment,
    cigar_to_path,
    path_to_cigar,
)

paths = st.lists(
    st.sampled_from([OP_DIAG, OP_QGAP, OP_SGAP]), min_size=0, max_size=200
).map(lambda ops: np.array(ops, dtype=np.uint8))


class TestCigarProperties:
    @given(paths)
    def test_round_trip(self, path):
        assert np.array_equal(cigar_to_path(path_to_cigar(path)), path)

    @given(paths)
    def test_cigar_counts_sum_to_length(self, path):
        cigar = path_to_cigar(path)
        total = sum(
            int(n) for n in __import__("re").findall(r"(\d+)[MID]", cigar)
        )
        assert total == path.size

    @given(paths)
    def test_runs_alternate(self, path):
        """No two consecutive CIGAR runs share an op letter."""
        import re

        letters = re.findall(r"\d+([MID])", path_to_cigar(path))
        assert all(a != b for a, b in zip(letters, letters[1:]))


@st.composite
def alignments(draw):
    """Pathless alignments: the tabular format carries no path."""
    q_start = draw(st.integers(0, 10_000))
    s_start = draw(st.integers(0, 10_000))
    span = draw(st.integers(1, 100))
    return Alignment(
        query_id=draw(st.text(alphabet="abcz.0-9", min_size=1, max_size=12)),
        subject_id=draw(st.text(alphabet="abcz.0-9", min_size=1, max_size=12)),
        q_start=q_start,
        q_end=q_start + span,
        s_start=s_start,
        s_end=s_start + span,
        score=draw(st.integers(0, 10_000)),
        evalue=draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        bits=draw(st.floats(min_value=0.0, max_value=5000.0, allow_nan=False)),
        matches=0,
        mismatches=0,
        strand=draw(st.sampled_from([1, -1])),
        speculative=draw(st.booleans()),
    )


class TestTabularProperties:
    @given(alignments())
    @settings(max_examples=60)
    def test_tabular_round_trip_fields(self, aln):
        row = parse_tabular(format_tabular_row(aln))[0]
        assert row["qseqid"] == aln.query_id
        assert row["sseqid"] == aln.subject_id
        assert row["qstart"] == aln.q_start + 1
        assert row["qend"] == aln.q_end
        # subject endpoints swap on minus strand but preserve the interval
        assert {row["sstart"], row["send"]} == {aln.s_start + 1, aln.s_end}
