"""Scaled dataset factories and the experiment scale map.

The paper's workloads are NCBI data on a 1024-core cluster; ours are
synthetic and ~1000× smaller (DESIGN.md §2). The scale map, used uniformly
by every experiment:

==============  ===============================  ======================
quantity        paper                            this reproduction
==============  ===============================  ======================
query length    L Mbp                            L kbp  (``query_scale`` 1000)
Drosophila DB   122.65 Mbp / 1170 sequences      ~1.2 Mbp / 256 sequences
mouse DB        ~2.6 Gbp                         ~2.6 Mbp
NT DB           ~50 Gbp                          ~5.2 Mbp
cache knee      1 Mbp query                      1 kbp query (same knee in
                                                 paper units via query_scale)
task time       seconds on Gordon                cache·scan + measured extras
==============  ===============================  ======================

Each dataset carries one :class:`~repro.cluster.hardware.HardwareModel`
holding its scales and models; replays turn measured records into
simulated durations ``cache_factor · scan_seconds + measured extras``
through it, where the scan term uses the paper-derived constant
0.68 s/Mbp² (:class:`repro.cluster.hardware.ScanCostModel` — from
Table III's 2.10 s mean map task). This keeps per-unit durations at the
paper's magnitude, so framework-overhead constants (Hadoop setup, per-task
dispatch) are realistically proportioned, while measured seconds still
carry the alignment-processing variation of the actual search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.hardware import CacheModel, DPMemoryModel, HardwareModel, ScanCostModel
from repro.sequence.generator import (
    HomologySpec,
    PlantedHomology,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.mutate import MutationModel
from repro.sequence.records import Database, SequenceRecord
from repro.util.validation import check_positive


@dataclass(frozen=True)
class DatasetSpec:
    """One experiment substrate: a database and the hardware model replaying it."""

    name: str
    database: Database
    hardware: HardwareModel
    description: str = ""

    @property
    def paper_db_length(self) -> float:
        return self.database.total_length * self.hardware.db_scale


def _paper_hardware(query_scale: float, db_scale: float) -> HardwareModel:
    """Every dataset's models: 1 Mbp cache knee, Table III scan cost, Gordon memory."""
    return HardwareModel(
        cache=CacheModel(threshold=1_000_000.0),
        scan=ScanCostModel(),
        memory=DPMemoryModel(),
        query_scale=query_scale,
        db_scale=db_scale,
    )


def drosophila_like(seed: int = 2014) -> DatasetSpec:
    """The paper's main reference database, ~100× smaller.

    1170 sequences / 122.65 Mbp becomes 256 sequences / ~1.2 Mbp with a
    skewed (lognormal) length distribution; keeping many sequences per
    shard preserves the paper's shard-size smoothing (1170 sequences into
    64 shards), so mpiBLAST's units are shaped by query length, not by one
    monster sequence. The cache knee is the paper's 1 Mbp in paper units.
    """
    db = make_database(
        seed,
        num_sequences=256,
        mean_length=4_800,
        name="drosophila_like",
        length_cv=0.8,
        repeat_family_count=1,
    )
    return DatasetSpec(
        name="drosophila_like",
        database=db,
        hardware=_paper_hardware(query_scale=1000.0, db_scale=100.0),
        description="Drosophila melanogaster stand-in (paper: 118 MB, 1170 seqs)",
    )


def mouse_like(seed: int = 2777) -> DatasetSpec:
    """The Section V-H mouse genome database (paper: 2.77 GB) at ~1/1000."""
    db = make_database(
        seed,
        num_sequences=40,
        mean_length=65_000,
        name="mouse_like",
        length_cv=0.7,
    )
    return DatasetSpec(
        name="mouse_like",
        database=db,
        hardware=_paper_hardware(query_scale=1000.0, db_scale=1000.0),
        description="Mouse genome stand-in (paper: 2.77 GB)",
    )


def nt_like(seed: int = 5650) -> DatasetSpec:
    """The Section V-H NT database (paper: 56.5 GB) at ~1/10000.

    NT queries are scaled 100× (not 1000×): the paper's NT query is 263 kbp
    — *below* the cache knee — so the Orion win there comes from work-unit
    parallelism, not cache relief; the scale choice preserves that regime.
    """
    db = make_database(
        seed,
        num_sequences=120,
        mean_length=43_000,
        name="nt_like",
        length_cv=1.0,
    )
    return DatasetSpec(
        name="nt_like",
        database=db,
        hardware=_paper_hardware(query_scale=100.0, db_scale=10_000.0),
        description="NT database stand-in (paper: 56.5 GB)",
    )


#: Planted-homology density for synthetic "human" queries: one conserved
#: element per ~10 kbp of query, 300–900 bp long — enough signal that
#: alignments exist at every scale without dominating runtime.
HOMOLOGY_SPACING = 10_000


def human_query(
    dataset: DatasetSpec,
    length: int,
    seed: int,
    seq_id: Optional[str] = None,
) -> Tuple[SequenceRecord, List[PlantedHomology]]:
    """A synthetic human contig of ``length`` bp over the dataset's database.

    Homology lengths cycle through {300, 600, 900} bp with close/distant
    divergence alternating, spaced every ~10 kbp.
    """
    check_positive("length", length)
    count = max(0, length // HOMOLOGY_SPACING)
    sizes = [300, 600, 900]
    models = [MutationModel.close_homolog(), MutationModel.distant_homolog()]
    homologies = [
        HomologySpec(length=sizes[i % 3], model=models[i % 2]) for i in range(count)
    ]
    return make_query_with_homologies(
        seed,
        length,
        dataset.database,
        homologies,
        seq_id=seq_id or f"hs.contig.{length}",
    )


def human_query_set(
    dataset: DatasetSpec,
    lengths: Sequence[int],
    seed: int = 99,
) -> List[SequenceRecord]:
    """A query set of synthetic contigs with the given lengths.

    Mirrors the paper's Section V-C set: "genomic contigs and scaffolds
    randomly selected from different human chromosomes", sizes from 1 Mbp
    to 71 Mbp (ours: 1–71 kbp under the scale map).
    """
    queries = []
    for i, length in enumerate(lengths):
        q, _ = human_query(dataset, length, seed + 7 * i, seq_id=f"hs.contig{i:02d}.{length}")
        queries.append(q)
    return queries


#: The Fig. 8 query set: 16 contigs, paper 1–71 Mbp -> ours 1–71 kbp.
FIG8_LENGTHS = [
    1_000, 2_000, 3_000, 5_000, 8_000, 12_000, 16_000, 21_000,
    27_000, 33_000, 40_000, 47_000, 54_000, 60_000, 66_000, 71_000,
]

#: The Fig. 9 query set: 32 sequences, paper 1–99 Mbp -> ours 1–99 kbp.
FIG9_LENGTHS = [1_000 + round(i * 98_000 / 31) for i in range(32)]

#: The Fig. 3 sweep: paper 3 kbp – 99 Mbp; ours 0.125–99 kbp (sub-knee
#: points keep the flat region visible).
FIG3_LENGTHS = [125, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 99_000]

#: The Fig. 10 sweep (Orion vs BLAST+ on one node): paper ~1–30 Mbp.
FIG10_LENGTHS = [1_000, 2_000, 4_000, 7_000, 10_000, 15_000, 22_000, 30_000]
