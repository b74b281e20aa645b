"""Engine robustness: degenerate and boundary inputs."""

import numpy as np

from repro.blast.engine import BlastEngine
from repro.blast.params import BlastParams
from repro.sequence.alphabet import encode, random_bases
from repro.sequence.records import Database, SequenceRecord


def db_of(*texts):
    return Database(
        [SequenceRecord.from_text(f"s{i}", t) for i, t in enumerate(texts)]
    )


class TestDegenerateQueries:
    def test_query_shorter_than_k(self, engine):
        query = SequenceRecord.from_text("q", "ACGTACGT")  # 8 < k=11
        res = engine.search(query, db_of("ACGTACGTACGTACGT" * 4))
        assert res.alignments == []
        assert res.counters.seeds == 0

    def test_query_all_ns(self, engine):
        query = SequenceRecord.from_text("q", "N" * 100)
        res = engine.search(query, db_of("ACGT" * 100))
        assert res.alignments == []

    def test_query_with_n_islands(self, engine):
        rng = np.random.default_rng(0)
        shared = random_bases(rng, 100)
        codes = np.concatenate([encode("N" * 50), shared, encode("N" * 50)])
        query = SequenceRecord(seq_id="q", codes=codes)
        subject = SequenceRecord(seq_id="s", codes=shared.copy())
        res = engine.search(query, Database([subject]))
        assert res.alignments
        assert (res.alignments[0].q_start, res.alignments[0].q_end) == (50, 150)

    def test_identical_query_and_subject(self, engine):
        rng = np.random.default_rng(1)
        seq = random_bases(rng, 500)
        query = SequenceRecord(seq_id="q", codes=seq)
        res = engine.search(query, Database([SequenceRecord(seq_id="s", codes=seq.copy())]))
        best = res.alignments[0]
        assert best.score == 500
        assert (best.q_start, best.q_end) == (0, 500)
        assert best.identity == 1.0

    def test_single_base_subject(self, engine):
        query = SequenceRecord.from_text("q", "ACGTACGTACGTACGT")
        res = engine.search(query, db_of("A"))
        assert res.alignments == []


class TestParameterBoundaries:
    def test_tiny_xdrop_still_finds_perfect_match(self):
        eng = BlastEngine(BlastParams(x_drop_ungapped=1, x_drop_gapped=1))
        rng = np.random.default_rng(2)
        seq = random_bases(rng, 300)
        query = SequenceRecord(seq_id="q", codes=seq)
        res = eng.search(query, Database([SequenceRecord(seq_id="s", codes=seq.copy())]))
        assert res.alignments[0].score == 300

    def test_strict_evalue_filters_weak_hits(self, engine, small_db, query_with_truth):
        query, _ = query_with_truth
        loose = engine.search(query, small_db)
        strict_engine = BlastEngine(BlastParams(evalue_threshold=1e-50))
        strict = strict_engine.search(query, small_db)
        assert len(strict.alignments) <= len(loose.alignments)
        assert all(a.evalue <= 1e-50 for a in strict.alignments)

    def test_large_k(self):
        eng = BlastEngine(BlastParams(k=31))
        rng = np.random.default_rng(3)
        seq = random_bases(rng, 200)
        query = SequenceRecord(seq_id="q", codes=seq)
        res = eng.search(query, Database([SequenceRecord(seq_id="s", codes=seq.copy())]))
        assert res.alignments
        assert res.alignments[0].score == 200

    def test_big_reward_scoring(self):
        eng = BlastEngine(BlastParams(reward=5, penalty=-20))
        rng = np.random.default_rng(4)
        seq = random_bases(rng, 100)
        query = SequenceRecord(seq_id="q", codes=seq)
        res = eng.search(query, Database([SequenceRecord(seq_id="s", codes=seq.copy())]))
        assert res.alignments[0].score == 500


class TestSubjectEdgeCases:
    def test_many_tiny_subjects(self, engine):
        rng = np.random.default_rng(5)
        query_codes = random_bases(rng, 2000)
        query = SequenceRecord(seq_id="q", codes=query_codes)
        subjects = [
            SequenceRecord(seq_id=f"s{i}", codes=query_codes[i * 20 : i * 20 + 15].copy())
            for i in range(50)
        ]
        res = engine.search(query, Database(subjects))
        # 15-mers of the query itself: every subject could seed
        assert res.counters.subjects_scanned == 50

    def test_alignment_at_subject_edges(self, engine):
        """Alignment flush against subject start and end."""
        rng = np.random.default_rng(6)
        shared = random_bases(rng, 200)
        query = SequenceRecord(
            seq_id="q",
            codes=np.concatenate([random_bases(rng, 300), shared, random_bases(rng, 300)]),
        )
        res = engine.search(query, Database([SequenceRecord(seq_id="s", codes=shared.copy())]))
        best = res.alignments[0]
        assert (best.s_start, best.s_end) == (0, 200)

    def test_repeat_rich_subject_with_cap(self, engine, small_db):
        from repro.blast.params import SearchOptions

        rng = np.random.default_rng(7)
        unit = random_bases(rng, 50)
        query = SequenceRecord(seq_id="q", codes=np.tile(unit, 40))  # 40 copies
        subject = SequenceRecord(seq_id="s", codes=np.tile(unit, 10))
        res = engine.search(
            query, Database([subject]), options=SearchOptions(max_hsps_per_subject=5)
        )
        assert len(res.alignments) <= 5
