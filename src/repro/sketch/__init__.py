"""repro.sketch — bottom-k k-mer sketches for shard pruning.

At millions-of-users scale the biggest win is searching *less*:
:meth:`repro.core.orion.OrionSearch.prepare` probes each query fragment
against a per-shard bottom-k sketch of k-mer content and emits
(fragment × shard) map tasks only for shards whose estimated containment
clears a threshold. Sketches are a sort and linear scans over the k-mer keys
the engine already builds (read from the shared-memory database plane
when the search holds one) and are mergeable: a shard sketch is the merge
of its member sequences' sketches. See DESIGN.md §4.8.
"""

from repro.sketch.minhash import (
    COMPLETE_THRESHOLD,
    DEFAULT_PRUNE_THRESHOLD,
    MIN_PROBE_DEFAULT,
    SKETCH_SIZE_DEFAULT,
    KmerSketch,
    ShardSketchIndex,
    containment,
    hash_codes,
    merge_sketches,
    probe_hashes,
    validate_prune_threshold,
)

__all__ = [
    "COMPLETE_THRESHOLD",
    "DEFAULT_PRUNE_THRESHOLD",
    "KmerSketch",
    "MIN_PROBE_DEFAULT",
    "SKETCH_SIZE_DEFAULT",
    "ShardSketchIndex",
    "containment",
    "hash_codes",
    "merge_sketches",
    "probe_hashes",
    "validate_prune_threshold",
]
