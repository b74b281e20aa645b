"""Boundary-aware search options for one fragment.

The engine already knows how to (a) flag alignments that reach into a margin
of the query edge as *partial* and (b) speculatively gap-extend
sub-threshold HSPs near such edges (paper Section III-B1). This module just
configures those switches per fragment: only *interior* edges (shared with a
neighbouring fragment) get boundary treatment; the true ends of the original
query behave exactly like serial BLAST.

Speculative extension runs the same gapped DP with the absolute drop rule.
"""

from __future__ import annotations

from repro.blast.params import SearchOptions
from repro.core.fragmenter import QueryFragment


def options_for_fragment(
    fragment: QueryFragment,
    speculative: bool = True,
    keep_traceback: bool = True,
    strands: str = "plus",
) -> SearchOptions:
    """Build :class:`SearchOptions` for searching one fragment.

    The boundary margin is the fragment overlap L: an alignment ending
    within L of an interior edge may continue in the neighbouring fragment,
    so it is flagged for the aggregation phase.

    For ``strands="both"`` the left/right distinction is blurred (a plus-
    frame right edge is a minus-frame left edge), so any interior edge
    enables both flags — conservative: extra partials are merely re-checked
    and E-filtered during aggregation, never wrongly reported.
    """
    left_interior = not fragment.is_first
    right_interior = not fragment.is_last
    if strands == "both" and (left_interior or right_interior):
        left_interior = right_interior = True
    has_boundary = left_interior or right_interior
    return SearchOptions(
        boundary_left=left_interior,
        boundary_right=right_interior,
        boundary_margin=fragment.overlap if has_boundary else 0,
        speculative=speculative and has_boundary,
        keep_traceback=keep_traceback,
    )
