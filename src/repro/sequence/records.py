"""Sequence records and databases.

:class:`SequenceRecord` is one named nucleotide sequence (a query contig or a
database entry); :class:`Database` is an ordered collection with the length
bookkeeping that BLAST statistics and the Orion overlap formula need
(the ``n`` in ``E = K·m·n·e^{-λS}`` is the total database length).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.sequence.alphabet import decode, encode


@dataclass(frozen=True)
class SequenceRecord:
    """One named sequence, stored 2-bit encoded.

    Attributes
    ----------
    seq_id:
        Stable identifier (FASTA header token), e.g. ``"chr2L"`` or
        ``"NT_077570"``.
    codes:
        ``uint8`` code array (see :mod:`repro.sequence.alphabet`).
    description:
        Optional free-text remainder of the FASTA header.
    """

    seq_id: str
    codes: np.ndarray
    description: str = ""

    def __post_init__(self) -> None:
        if not self.seq_id:
            raise ValueError("seq_id must be non-empty")
        codes = encode(self.codes) if not isinstance(self.codes, np.ndarray) else self.codes
        if codes.dtype != np.uint8 or codes.ndim != 1:
            raise TypeError("codes must be a 1-D uint8 array")
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_text(cls, seq_id: str, text: str, description: str = "") -> "SequenceRecord":
        """Build a record from an ``ACGT`` string."""
        return cls(seq_id=seq_id, codes=encode(text), description=description)

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    @property
    def text(self) -> str:
        """The decoded ``ACGT`` string (allocates; for I/O and debugging)."""
        return decode(self.codes)

    def slice(self, start: int, stop: int, seq_id: Optional[str] = None) -> "SequenceRecord":
        """A sub-record sharing the same identifier by default.

        The returned record's ``codes`` is a NumPy *view*, not a copy — slicing
        a query into fragments costs O(1) memory (guide: views, not copies).
        """
        if not 0 <= start <= stop <= len(self):
            raise ValueError(
                f"slice [{start}, {stop}) out of bounds for length {len(self)}"
            )
        return SequenceRecord(
            seq_id=seq_id or self.seq_id,
            codes=self.codes[start:stop],
            description=self.description,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceRecord):
            return NotImplemented
        return (
            self.seq_id == other.seq_id
            and len(self) == len(other)
            and bool(np.array_equal(self.codes, other.codes))
        )

    def __hash__(self) -> int:
        return hash((self.seq_id, len(self)))


class Database:
    """An ordered, indexable collection of reference sequences.

    Mirrors a formatted BLAST database: it knows its total residue count
    (``total_length``, the paper's "unformatted size" analogue) and provides
    the lookups the engine, the sharder and the aggregation reducers need.
    """

    def __init__(self, records: Iterable[SequenceRecord], name: str = "db") -> None:
        self.name = name
        self.records: List[SequenceRecord] = list(records)
        if not self.records:
            raise ValueError("database must contain at least one sequence")
        ids = [r.seq_id for r in self.records]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate sequence ids in database: {dupes}")
        self._by_id = {r.seq_id: r for r in self.records}
        # Records are fixed after construction, so the length bookkeeping is
        # computed once: every query's search space asks for the total.
        self._lengths = np.array([len(r) for r in self.records], dtype=np.int64)
        self._total_length = int(self._lengths.sum())

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SequenceRecord]:
        return iter(self.records)

    def __getitem__(self, seq_id: str) -> SequenceRecord:
        return self._by_id[seq_id]

    def __contains__(self, seq_id: str) -> bool:
        return seq_id in self._by_id

    @property
    def total_length(self) -> int:
        """Total residues across all sequences (the statistics' ``n``)."""
        return self._total_length

    @property
    def num_sequences(self) -> int:
        return len(self.records)

    def lengths(self) -> np.ndarray:
        """Per-record lengths, in record order."""
        return self._lengths.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Database(name={self.name!r}, sequences={self.num_sequences}, "
            f"residues={self.total_length})"
        )
