"""Tests for FASTA I/O."""

import pytest

from repro.sequence.fasta import read_fasta, write_fasta
from repro.sequence.records import SequenceRecord


@pytest.fixture
def read_fasta_str(tmp_path):
    """Parse FASTA text through :func:`read_fasta` on a scratch file."""

    def read(text):
        path = tmp_path / "in.fa"
        path.write_text(text)
        return read_fasta(path)

    return read


@pytest.fixture
def write_fasta_str(tmp_path):
    """Render records through :func:`write_fasta` to a scratch file."""

    def write(records, **kwargs):
        path = tmp_path / "out.fa"
        write_fasta(records, path, **kwargs)
        return path.read_text()

    return write


class TestReadFastaStr:
    def test_basic(self, read_fasta_str):
        recs = read_fasta_str(">s1 a description\nACGT\nACGT\n>s2\nTTTT\n")
        assert len(recs) == 2
        assert recs[0].seq_id == "s1"
        assert recs[0].description == "a description"
        assert recs[0].text == "ACGTACGT"
        assert recs[1].text == "TTTT"

    def test_blank_lines_skipped(self, read_fasta_str):
        recs = read_fasta_str(">s1\nAC\n\nGT\n")
        assert recs[0].text == "ACGT"

    def test_data_before_header_rejected(self, read_fasta_str):
        with pytest.raises(ValueError, match="before any header"):
            read_fasta_str("ACGT\n>s1\nAC\n")

    def test_empty_header_rejected(self, read_fasta_str):
        with pytest.raises(ValueError, match="empty FASTA header"):
            read_fasta_str(">\nACGT\n")

    def test_empty_input(self, read_fasta_str):
        assert read_fasta_str("") == []

    def test_n_bases_preserved(self, read_fasta_str):
        recs = read_fasta_str(">s\nACNNGT\n")
        assert recs[0].text == "ACNNGT"


class TestWriteFasta:
    def test_round_trip_str(self, read_fasta_str, write_fasta_str):
        recs = [
            SequenceRecord.from_text("a", "ACGT" * 30, description="desc here"),
            SequenceRecord.from_text("b", "TT"),
        ]
        text = write_fasta_str(recs)
        back = read_fasta_str(text)
        assert back == recs
        assert back[0].description == "desc here"

    def test_wrapping(self, write_fasta_str):
        text = write_fasta_str([SequenceRecord.from_text("a", "A" * 100)], wrap=40)
        body = [ln for ln in text.splitlines() if not ln.startswith(">")]
        assert [len(ln) for ln in body] == [40, 40, 20]

    def test_bad_wrap_rejected(self, write_fasta_str):
        with pytest.raises(ValueError):
            write_fasta_str([SequenceRecord.from_text("a", "ACGT")], wrap=0)

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "x.fa"
        recs = [SequenceRecord.from_text("a", "ACGTGTCA" * 10)]
        assert write_fasta(recs, path) == 1
        assert read_fasta(path) == recs
