"""Tests for the end-to-end BLAST engine."""

import numpy as np
import pytest

from repro.blast.engine import BlastEngine
from repro.blast.hsp import MINUS_STRAND
from repro.blast.params import BlastParams, SearchOptions
from repro.sequence.alphabet import reverse_complement
from repro.sequence.records import Database, SequenceRecord
from tests.conftest import alignment_keys


class TestSearchFindsPlantedHomologies:
    def test_all_planted_regions_recovered(self, engine, small_db, query_with_truth):
        query, truth = query_with_truth
        res = engine.search(query, small_db)
        for t in truth:
            qs, qe = t.query_interval
            found = [
                a
                for a in res.alignments
                if a.subject_id == t.subject_id
                and a.q_start < qe
                and a.q_end > qs
            ]
            assert found, f"planted homology at {t.query_interval} missed"
            # Divergent homologies may be reported as several local
            # alignments (x-drop segmentation); require the union of found
            # alignments to cover most of the planted region.
            covered = np.zeros(qe - qs, dtype=bool)
            for a in found:
                lo = max(a.q_start, qs) - qs
                hi = min(a.q_end, qe) - qs
                covered[lo:hi] = True
            assert covered.mean() > 0.45, (
                f"only {covered.mean():.0%} of homology {t.query_interval} recovered"
            )

    def test_report_is_sorted_by_evalue(self, serial_result):
        evs = [a.evalue for a in serial_result.alignments]
        assert evs == sorted(evs)

    def test_evalue_threshold_respected(self, serial_result, engine):
        assert all(
            a.evalue <= engine.params.evalue_threshold for a in serial_result.alignments
        )

    def test_counters_populated(self, serial_result, small_db):
        c = serial_result.counters
        assert c.subjects_scanned == small_db.num_sequences
        assert c.seeds > 0
        assert c.gapped_extensions >= len(serial_result.alignments)
        assert c.elapsed_seconds > 0

    def test_deterministic(self, engine, small_db, query_with_truth):
        query, _ = query_with_truth
        a = engine.search(query, small_db)
        b = engine.search(query, small_db)
        assert alignment_keys(a.alignments) == alignment_keys(b.alignments)


class TestStatsSpaceOverride:
    def test_shard_search_with_global_space_matches_serial_evalues(
        self, engine, small_db, query_with_truth
    ):
        """Searching a shard with the whole-DB space must reproduce the
        E-values a whole-DB search assigns to the same alignments."""
        query, _ = query_with_truth
        whole = engine.search(query, small_db)
        target = whole.alignments[0]
        shard = Database([small_db[target.subject_id]])
        space = engine.search_space(
            len(query), small_db.total_length, small_db.num_sequences
        )
        shard_res = engine.search(query, shard, stats_space=space)
        def location(a):
            return (a.subject_id, a.strand, a.q_start, a.q_end, a.s_start, a.s_end)

        match = [a for a in shard_res.alignments if location(a) == location(target)]
        assert match
        assert match[0].evalue == pytest.approx(target.evalue)

    def test_ungapped_threshold_from_space(self, engine):
        small = engine.search_space(1000, 10_000, 10)
        big = engine.search_space(1_000_000, 100_000_000, 1000)
        assert engine.ungapped_threshold(big) > engine.ungapped_threshold(small)

    def test_explicit_threshold_wins(self):
        eng = BlastEngine(BlastParams(ungapped_threshold=42))
        space = eng.search_space(1000, 10_000, 10)
        assert eng.ungapped_threshold(space) == 42


class TestBothStrands:
    def test_minus_strand_homology_found(self, engine, small_db):
        donor = small_db.records[2]
        rc = reverse_complement(donor.codes[100:700])
        rng = np.random.default_rng(0)
        from repro.sequence.alphabet import random_bases

        codes = random_bases(rng, 5000)
        codes[2000 : 2000 + rc.size] = rc
        query = SequenceRecord(seq_id="q.minus", codes=codes)
        plus_only = engine.search(query, small_db)
        both = engine.search(query, small_db, strands="both")
        minus_hits = [a for a in both.alignments if a.strand == MINUS_STRAND]
        assert any(a.subject_id == donor.seq_id for a in minus_hits)
        assert not any(
            a.subject_id == donor.seq_id and a.score > 100 for a in plus_only.alignments
        )

    def test_invalid_strands_rejected(self, engine, small_db, query_with_truth):
        query, _ = query_with_truth
        with pytest.raises(ValueError):
            engine.search(query, small_db, strands="minus")


class TestBoundaryOptions:
    def test_partial_kept_despite_failing_evalue(self, engine, small_db):
        """A sub-threshold alignment touching an interior boundary must be
        kept for the aggregation phase."""
        donor = small_db.records[0]
        # Query ends exactly in the middle of a homologous region: the right
        # half of the alignment is cut off at the query (fragment) edge.
        rng = np.random.default_rng(1)
        from repro.sequence.alphabet import random_bases

        codes = np.concatenate([random_bases(rng, 3000), donor.codes[500:530]])
        query = SequenceRecord(seq_id="q.partial", codes=codes)
        options = SearchOptions(
            boundary_right=True, boundary_margin=60, speculative=True
        )
        res = engine.search(query, Database([small_db[donor.seq_id]]), options=options)
        touching = [a for a in res.alignments if a.q_end >= len(query) - 60]
        assert touching  # kept even though a 30 bp match may fail E on its own

    def test_max_hsps_cap(self, engine, small_db, query_with_truth):
        query, _ = query_with_truth
        res = engine.search(
            query, small_db, options=SearchOptions(max_hsps_per_subject=1)
        )
        from collections import Counter

        per_subject = Counter(a.subject_id for a in res.alignments)
        assert all(v <= 1 for v in per_subject.values())
