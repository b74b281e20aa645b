"""Minimal FASTA reader/writer.

The paper's pipeline moves data as FASTA (queries, database, shards on shared
storage). This module round-trips :class:`~repro.sequence.records.SequenceRecord`
collections through the format, including the line-wrapping NCBI tools emit.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, TextIO, Union

from repro.sequence.records import SequenceRecord

PathLike = Union[str, "os.PathLike[str]"]

#: NCBI default FASTA line width.
DEFAULT_WRAP = 70


def _parse_stream(stream: TextIO) -> Iterator[SequenceRecord]:
    header: str = ""
    chunks: List[str] = []
    saw_header = False
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if saw_header:
                yield _make_record(header, chunks)
            header = line[1:].strip()
            if not header:
                raise ValueError(f"line {lineno}: empty FASTA header")
            chunks = []
            saw_header = True
        else:
            if not saw_header:
                raise ValueError(f"line {lineno}: sequence data before any header")
            chunks.append(line)
    if saw_header:
        yield _make_record(header, chunks)


def _make_record(header: str, chunks: List[str]) -> SequenceRecord:
    parts = header.split(None, 1)
    seq_id = parts[0]
    description = parts[1] if len(parts) > 1 else ""
    return SequenceRecord.from_text(seq_id, "".join(chunks), description=description)


def read_fasta(path: PathLike) -> List[SequenceRecord]:
    """Read every record in a FASTA file."""
    with open(path, "r", encoding="ascii") as fh:
        return list(_parse_stream(fh))


def _write_stream(records: Iterable[SequenceRecord], stream: TextIO, wrap: int) -> int:
    if wrap <= 0:
        raise ValueError(f"wrap must be positive, got {wrap}")
    count = 0
    for rec in records:
        header = f">{rec.seq_id}"
        if rec.description:
            header += f" {rec.description}"
        stream.write(header + "\n")
        text = rec.text
        for i in range(0, len(text), wrap):
            stream.write(text[i : i + wrap] + "\n")
        if not text:
            # Zero-length records still need their (empty) body terminated.
            pass
        count += 1
    return count


def write_fasta(records: Iterable[SequenceRecord], path: PathLike, wrap: int = DEFAULT_WRAP) -> int:
    """Write records to a FASTA file; returns the record count."""
    with open(path, "w", encoding="ascii") as fh:
        return _write_stream(records, fh, wrap)
