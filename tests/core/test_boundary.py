"""Tests for per-fragment boundary options."""

from repro.core.boundary import options_for_fragment
from repro.core.fragmenter import fragment_query
from repro.sequence.records import SequenceRecord


def frags():
    q = SequenceRecord.from_text("q", "ACGT" * 2500)  # 10 kbp
    return fragment_query(q, 3000, 50)


class TestOptionsForFragment:
    def test_first_fragment_right_boundary_only(self):
        opts = options_for_fragment(frags()[0])
        assert not opts.boundary_left
        assert opts.boundary_right
        assert opts.speculative
        assert opts.boundary_margin == 50

    def test_interior_fragment_both(self):
        opts = options_for_fragment(frags()[1])
        assert opts.boundary_left and opts.boundary_right

    def test_last_fragment_left_only(self):
        opts = options_for_fragment(frags()[-1])
        assert opts.boundary_left and not opts.boundary_right

    def test_single_fragment_behaves_like_serial(self):
        q = SequenceRecord.from_text("q", "ACGT" * 100)
        only = fragment_query(q, 1000, 20)[0]
        opts = options_for_fragment(only)
        assert not opts.boundary_left and not opts.boundary_right
        assert not opts.speculative
        assert opts.boundary_margin == 0

    def test_speculation_can_be_disabled(self):
        opts = options_for_fragment(frags()[1], speculative=False)
        assert not opts.speculative
        assert opts.boundary_left  # flags still set for partial marking

    def test_both_strands_sets_both_flags(self):
        opts = options_for_fragment(frags()[0], strands="both")
        assert opts.boundary_left and opts.boundary_right

    def test_traceback_flag_passthrough(self):
        assert options_for_fragment(frags()[0], keep_traceback=False).keep_traceback is False
