"""Query fragmentation: equal-sized fragments with model-derived overlap.

Fragment *i* covers query interval ``[i·(F−L), i·(F−L) + F)`` for fragment
length F and overlap L; the final fragment is clamped to the query end.
Invariants (property-tested):

* the union of fragments is exactly the query (full coverage, in order);
* consecutive fragments overlap by exactly L (the final one by ≥ L);
* a query no longer than F yields a single fragment — the paper's
  Section III-D rule that small queries are not fragmented.

Fragment records are NumPy *views* of the query, so fragmentation is O(1)
memory per fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sequence.records import SequenceRecord
from repro.util.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class QueryFragment:
    """One overlapping query fragment.

    ``offset`` is the fragment's start in global query coordinates;
    ``is_first``/``is_last`` say which edges are true query ends (the other
    edges are *interior boundaries* where alignments may be cut).
    """

    index: int
    record: SequenceRecord
    offset: int
    overlap: int
    is_first: bool
    is_last: bool

    @property
    def length(self) -> int:
        return len(self.record)

    @property
    def end(self) -> int:
        """Global end (exclusive)."""
        return self.offset + self.length


def fragment_query(
    query: SequenceRecord, fragment_length: int, overlap: int
) -> List[QueryFragment]:
    """Fragment a query into overlapping, equal-sized pieces.

    Raises when ``overlap >= fragment_length`` (the stride would not
    advance). Fragment ids are ``{query}.frag{index:04d}``.
    """
    check_positive("fragment_length", fragment_length)
    check_nonnegative("overlap", overlap)
    if overlap >= fragment_length:
        raise ValueError(
            f"overlap ({overlap}) must be smaller than fragment_length "
            f"({fragment_length})"
        )
    n = len(query)
    if n == 0:
        raise ValueError("cannot fragment an empty query")
    if n <= fragment_length:
        return [
            QueryFragment(
                index=0,
                record=query.slice(0, n, seq_id=f"{query.seq_id}.frag0000"),
                offset=0,
                overlap=overlap,
                is_first=True,
                is_last=True,
            )
        ]
    stride = fragment_length - overlap
    fragments: List[QueryFragment] = []
    start = 0
    while True:
        stop = min(start + fragment_length, n)
        is_last = stop >= n
        fragments.append(
            QueryFragment(
                index=len(fragments),
                record=query.slice(
                    start, stop, seq_id=f"{query.seq_id}.frag{len(fragments):04d}"
                ),
                offset=start,
                overlap=overlap,
                is_first=start == 0,
                is_last=is_last,
            )
        )
        if is_last:
            break
        start += stride
    return fragments


def suggest_fragment_length(
    query_length: int,
    overlap: int,
    num_shards: int,
    total_slots: int,
    units_per_slot: int = 4,
    min_fragment_length: int = 5_000,
) -> int:
    """Heuristic default fragment length when no calibration is available.

    Targets ``units_per_slot`` work units per execution slot (paper
    Section V-G: the number of fragments × shards "should be larger than the
    number of available cores"), floored so fragments never shrink to the
    overlap scale. Calibration (:mod:`repro.core.calibrate`) refines this.
    """
    check_positive("query_length", query_length)
    check_positive("num_shards", num_shards)
    check_positive("total_slots", total_slots)
    check_positive("units_per_slot", units_per_slot)
    target_fragments = max(1, (total_slots * units_per_slot) // num_shards)
    frag = max(min_fragment_length, 4 * overlap, -(-query_length // target_fragments))
    return min(frag + overlap, max(query_length, overlap + 1))
