"""BLAST+ baseline (paper Section V-F): single-node, query splitting.

BLAST+ addresses long queries by *query splitting* — fixed-size chunks with
a fixed overlap, processed one after another, each chunk's database scan
spread across the node's threads. It exploits only intra-query parallelism
on one machine: no database sharding across nodes, a hard scalability
ceiling the paper contrasts with Orion. Chunks are merged by coordinate
translation and duplicate removal (no cross-chunk aggregation — which is why
BLAST+ needs its overlap to exceed any alignment it wants to keep intact).
"""

from repro.blastplus.splitter import QueryChunk, merge_chunk_alignments, split_query
from repro.blastplus.runner import BlastPlusResult, BlastPlusRunner, replay_blastplus

__all__ = [
    "QueryChunk",
    "split_query",
    "merge_chunk_alignments",
    "BlastPlusResult",
    "BlastPlusRunner",
    "replay_blastplus",
]
