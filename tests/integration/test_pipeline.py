"""Cross-substrate integration: FASTA round trips.

Exercises the seam between the sequence layer and the engine it feeds.
"""

from repro.sequence.fasta import read_fasta, write_fasta


class TestFastaThroughEngine:
    def test_round_tripped_query_gives_identical_results(
        self, engine, small_db, query_with_truth, serial_result, tmp_path
    ):
        query, _ = query_with_truth
        write_fasta([query], tmp_path / "q.fa")
        back = read_fasta(tmp_path / "q.fa")[0]
        res = engine.search(back, small_db)
        from tests.conftest import alignment_keys

        assert alignment_keys(res.alignments) == alignment_keys(serial_result.alignments)
