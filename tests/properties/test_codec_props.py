"""Property-based tests for the tabular text codec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.formatter import format_tabular_row
from repro.blast.hsp import Alignment
from tests.conftest import parse_tabular


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
