"""``mpiformatdb``: shard a database into approximately equal pieces.

mpiBLAST's formatter splits the database into a requested number of disjoint
shards of roughly equal residue size, never splitting an individual sequence
(sequences are the atomic unit). Orion reuses this exact sharder (paper
Section IV-A), so it lives here and :mod:`repro.core` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sequence.records import Database, SequenceRecord


@dataclass(frozen=True)
class DatabaseShard:
    """One shard: a sub-database plus its index within the sharding."""

    index: int
    database: Database

    @property
    def total_length(self) -> int:
        return self.database.total_length

    @property
    def num_sequences(self) -> int:
        return self.database.num_sequences


def shard_database(database: Database, num_shards: int) -> List[DatabaseShard]:
    """Split a database into ``num_shards`` disjoint, size-balanced shards.

    Sequential fill against cumulative residue targets: shard *j* closes once
    the residues consumed so far reach ``total·(j+1)/S``, except when the
    remaining sequences are only just enough to give every remaining shard
    one (shards may never be empty). Guarantees, asserted by tests:

    * every sequence appears in exactly one shard, in database order;
    * shard count equals ``min(num_shards, len(database))`` — you cannot
      make more shards than sequences, the same limit mpiformatdb has.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    records = list(database.records)
    effective = min(num_shards, len(records))
    total = database.total_length

    shards: List[DatabaseShard] = []
    current: List[SequenceRecord] = []
    consumed = 0

    def close_current() -> None:
        shards.append(
            DatabaseShard(
                index=len(shards),
                database=Database(current, name=f"{database.name}.{len(shards):03d}"),
            )
        )

    for i, record in enumerate(records):
        current.append(record)
        consumed += len(record)
        is_last_shard = len(shards) == effective - 1
        if is_last_shard:
            continue  # everything else belongs to the final shard
        remaining_seqs = len(records) - (i + 1)
        shards_after_this = effective - (len(shards) + 1)
        target = total * (len(shards) + 1) / effective
        if consumed >= target or remaining_seqs == shards_after_this:
            close_current()
            current = []
    if current:
        close_current()
    assert len(shards) == effective, (len(shards), effective)
    return shards
