"""mpiBLAST baseline (paper Section II-C): database sharding, master–worker.

The most popular open-source parallel BLAST, reimplemented: ``mpiformatdb``
shards the database into approximately equal disjoint pieces
(:mod:`repro.mpiblast.formatdb`); a master greedily hands (query-segment,
shard) work units to idle workers (:mod:`repro.mpiblast.scheduler`); workers
run the shared BLAST engine; the master merges and sorts. Parallelism tops
out at ``|Q| × shards`` — there is *no* intra-query parallelism, which is
exactly the limitation Orion attacks.

The runner also reproduces mpiBLAST's failure mode on very long queries: the
modelled dynamic-programming allocation (paper: "required about 2178 Gb of
memory") raises :class:`repro.cluster.hardware.OutOfMemoryError`.
"""

from repro.mpiblast.formatdb import DatabaseShard, shard_database
from repro.mpiblast.scheduler import MasterScheduler, WorkAssignment
from repro.mpiblast.runner import MpiBlastResult, MpiBlastRunner, replay_mpiblast

__all__ = [
    "DatabaseShard",
    "shard_database",
    "MasterScheduler",
    "WorkAssignment",
    "MpiBlastResult",
    "MpiBlastRunner",
    "replay_mpiblast",
]
