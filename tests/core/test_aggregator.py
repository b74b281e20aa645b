"""Tests for the reduce-phase aggregation."""

import numpy as np
import pytest

from repro.blast.hsp import OP_DIAG, Alignment
from repro.core import aggregator as aggregator_mod
from repro.core.aggregator import (
    CLUSTER_TOLERANCE,
    AggregationStats,
    _cluster,
    _cull_contained,
    _dedupe_locations,
    aggregate_subject_alignments,
)
from repro.core.results import FragmentAlignment
from repro.sequence.alphabet import random_bases


def mk(qs, qe, ss, se, score=10, evalue=1e-6, spec=False):
    return Alignment(
        query_id="q", subject_id="s", q_start=qs, q_end=qe, s_start=ss, s_end=se,
        score=score, evalue=evalue, bits=1.0,
        path=np.array([OP_DIAG] * (qe - qs), dtype=np.uint8) if qe - qs == se - ss else None,
        speculative=spec,
    )


def frag(aln, idx=0, left=False, right=False):
    return FragmentAlignment(alignment=aln, fragment_index=idx, partial_left=left, partial_right=right)


class TestDedupeLocations:
    def test_duplicates_collapse_keeping_best(self):
        items = [frag(mk(0, 10, 0, 10, score=5)), frag(mk(0, 10, 0, 10, score=9))]
        kept, removed = _dedupe_locations(items)
        assert removed == 1
        assert kept[0].alignment.score == 9

    def test_flags_or_combined(self):
        items = [
            frag(mk(0, 10, 0, 10), left=True),
            frag(mk(0, 10, 0, 10), right=True),
        ]
        kept, _ = _dedupe_locations(items)
        assert kept[0].partial_left and kept[0].partial_right

    def test_distinct_locations_kept(self):
        items = [frag(mk(0, 10, 0, 10)), frag(mk(20, 30, 20, 30))]
        kept, removed = _dedupe_locations(items)
        assert len(kept) == 2 and removed == 0


class TestCullContained:
    def test_contained_lower_scorer_dropped(self):
        out = _cull_contained([mk(0, 50, 0, 50, score=40), mk(10, 20, 10, 20, score=5)])
        assert len(out) == 1

    def test_partial_overlap_kept(self):
        out = _cull_contained([mk(0, 30, 0, 30, score=20), mk(20, 50, 20, 50, score=20)])
        assert len(out) == 2


class TestCluster:
    def test_nearby_grouped(self):
        items = [frag(mk(0, 100, 0, 100)), frag(mk(150, 250, 150, 250))]
        groups = _cluster(items, tol=60)
        assert len(groups) == 1

    def test_far_apart_separate(self):
        items = [frag(mk(0, 100, 0, 100)), frag(mk(1000, 1100, 1000, 1100))]
        groups = _cluster(items, tol=60)
        assert len(groups) == 2

    def test_subject_distance_matters(self):
        """Close in query but far in subject: different alignments."""
        items = [frag(mk(0, 100, 0, 100)), frag(mk(50, 150, 5000, 5100))]
        assert len(_cluster(items, tol=60)) == 2

    def test_chain_transitive(self):
        items = [
            frag(mk(0, 100, 0, 100)),
            frag(mk(120, 220, 120, 220)),
            frag(mk(240, 340, 240, 340)),
        ]
        assert len(_cluster(items, tol=60)) == 1

    def test_groups_ordered_by_smallest_member(self):
        """Regression (ORL004 fix): cluster order is pinned to the smallest
        member index, independent of union-find root choice."""
        items = [
            frag(mk(1000, 1100, 1000, 1100)),
            frag(mk(0, 100, 0, 100)),
            frag(mk(1010, 1110, 1010, 1110)),
            frag(mk(5, 105, 5, 105)),
        ]
        groups = _cluster(items, tol=60)
        assert groups == [[0, 2], [1, 3]]
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)


class TestAggregateResearchMode:
    def _context(self, engine):
        rng = np.random.default_rng(10)
        q = random_bases(rng, 3000)
        s = np.concatenate([random_bases(rng, 200), q[500:1500], random_bases(rng, 200)])
        space = engine.search_space(3000, s.size, 1)
        return q, s, space

    def test_cross_boundary_partials_resolve_to_serial(self, engine):
        """Two halves of one 1000 bp homology, cut at query position 1000,
        must come back as the single serial alignment."""
        q, s, space = self._context(engine)
        # Ground truth: q[500:1500) == s[200:1200)
        left = Alignment(
            query_id="q", subject_id="s", q_start=500, q_end=1000,
            s_start=200, s_end=700, score=500, evalue=1e-100, bits=1.0,
            path=np.array([OP_DIAG] * 500, dtype=np.uint8),
        )
        right = Alignment(
            query_id="q", subject_id="s", q_start=1000, q_end=1500,
            s_start=700, s_end=1200, score=500, evalue=1e-100, bits=1.0,
            path=np.array([OP_DIAG] * 500, dtype=np.uint8),
        )
        items = [frag(left, 0, right=True), frag(right, 1, left=True)]
        finals, stats = aggregate_subject_alignments(items, q, s, engine, space)
        assert len(finals) == 1
        # The re-search may extend a base or two into chance matches at the
        # flanks — exactly what serial BLAST does; the core must be covered.
        assert finals[0].q_start <= 500 and finals[0].q_end >= 1500
        assert finals[0].score >= 1000
        assert stats.clusters_resolved == 1

    def test_non_partial_singleton_passthrough(self, engine):
        q, s, space = self._context(engine)
        aln = Alignment(
            query_id="q", subject_id="s", q_start=500, q_end=1500,
            s_start=200, s_end=1200, score=1000, evalue=1e-200, bits=1.0,
            path=np.array([OP_DIAG] * 1000, dtype=np.uint8),
        )
        finals, stats = aggregate_subject_alignments([frag(aln)], q, s, engine, space)
        assert len(finals) == 1
        assert finals[0] is aln  # untouched
        assert stats.clusters_resolved == 0

    def test_non_partial_cluster_passes_through_unsearched(self, engine, monkeypatch):
        """Nearby alignments one fragment found, none touching its edges —
        one divergent homology reported as several HSPs — come back as the
        map found them, E-filtered like a singleton; nothing is re-searched."""
        q, s, space = self._context(engine)

        def fail(*args, **kwargs):
            raise AssertionError("a cluster without partials was re-searched")

        monkeypatch.setattr(aggregator_mod, "_research_cluster", fail)
        first = mk(500, 900, 200, 600, score=400, evalue=1e-80)
        second = mk(1000, 1400, 700, 1100, score=400, evalue=1e-80)
        weak = mk(1450, 1462, 1150, 1162, score=12, evalue=50.0)
        items = [frag(first, 2), frag(second, 2), frag(weak, 2)]
        assert len(_cluster(items, CLUSTER_TOLERANCE)) == 1
        finals, stats = aggregate_subject_alignments(items, q, s, engine, space)
        assert len(finals) == 2
        assert {id(a) for a in finals} == {id(first), id(second)}
        assert stats.clusters_resolved == 0
        assert stats.merged_pairs == 0
        assert stats.dropped_partials == 1

    @pytest.mark.parametrize(
        "second_fragment, second_left",
        [(0, True), (1, False)],
        ids=["one-partial-member", "two-fragments"],
    )
    def test_boundary_cluster_is_researched(
        self, engine, monkeypatch, second_fragment, second_left
    ):
        """A cluster holding a partial is re-searched, and so is one found
        by two fragments: an extension crossed their shared edge but peaked
        short of the margin on both sides."""
        q, s, space = self._context(engine)
        calls = []
        research = aggregator_mod._research_cluster

        def spy(members, *args):
            calls.append(len(members))
            return research(members, *args)

        monkeypatch.setattr(aggregator_mod, "_research_cluster", spy)
        first = mk(500, 900, 200, 600, score=400, evalue=1e-80)
        second = mk(1000, 1400, 700, 1100, score=400, evalue=1e-80)
        items = [frag(first, 0), frag(second, second_fragment, left=second_left)]
        finals, stats = aggregate_subject_alignments(items, q, s, engine, space)
        assert calls == [2]
        assert stats.clusters_resolved == 1
        # The window holds one 1000 bp homology: the re-search reports it whole.
        assert len(finals) == 1 and stats.merged_pairs == 1

    def test_failing_evalue_singleton_dropped(self, engine):
        q, s, space = self._context(engine)
        weak = mk(0, 12, 0, 12, score=12, evalue=50.0)
        finals, stats = aggregate_subject_alignments([frag(weak)], q, s, engine, space)
        assert finals == []
        assert stats.dropped_partials == 1

    def test_empty_input(self, engine):
        q, s, space = self._context(engine)
        finals, stats = aggregate_subject_alignments([], q, s, engine, space)
        assert finals == [] and stats.input_alignments == 0

    def test_invalid_mode_rejected(self, engine):
        q, s, space = self._context(engine)
        with pytest.raises(ValueError):
            aggregate_subject_alignments([], q, s, engine, space, mode="magic")


class TestAggregationStats:
    def test_merge(self):
        a = AggregationStats(input_alignments=3, merged_pairs=1)
        b = AggregationStats(input_alignments=2, dropped_partials=1)
        a.merge(b)
        assert a.input_alignments == 5
        assert a.dropped_partials == 1
        assert a.merged_pairs == 1
