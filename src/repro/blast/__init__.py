"""A from-scratch nucleotide BLAST engine (paper substrate #1).

Implements the three-phase pipeline the paper describes (Section II-B):

1. *k-mer match* — exact seed hits between query and subject found through a
   packed-code lookup index (:mod:`repro.blast.lookup`, :mod:`repro.blast.seeds`);
2. *ungapped alignment* — x-drop extension along the seed diagonal, batched
   and vectorized (:mod:`repro.blast.ungapped`);
3. *gapped alignment* — banded affine x-drop dynamic programming with
   traceback (:mod:`repro.blast.gapped`).

Karlin–Altschul statistics (λ, K, effective lengths, E-values) live in
:mod:`repro.blast.statistics`; the paper's Table II constants (λ=1.374,
K=0.711) are reproduced by that module's solvers. A Smith–Waterman score
(:mod:`repro.blast.smith_waterman`) serves as the accuracy oracle.
"""

from repro.blast.params import BlastParams, SearchOptions
from repro.blast.scoring import ScoringScheme
from repro.blast.statistics import (
    KarlinAltschulParams,
    SearchSpace,
    bit_score,
    effective_lengths,
    evalue,
    karlin_altschul,
    minimum_significant_score,
)
from repro.blast.hsp import Alignment, SeedHits
from repro.blast.lookup import QueryIndex, kmer_codes
from repro.blast.seeds import find_seeds, two_hit_filter
from repro.blast.dust import low_complexity_intervals, mask_low_complexity
from repro.blast.pairwise import format_pairwise
from repro.blast.ungapped import extend_seeds_ungapped
from repro.blast.gapped import GappedExtension, extend_gapped
from repro.blast.engine import BlastEngine, SearchResult
from repro.blast.smith_waterman import smith_waterman_score
from repro.blast.formatter import format_tabular

__all__ = [
    "BlastParams",
    "SearchOptions",
    "ScoringScheme",
    "KarlinAltschulParams",
    "SearchSpace",
    "karlin_altschul",
    "effective_lengths",
    "evalue",
    "bit_score",
    "minimum_significant_score",
    "Alignment",
    "SeedHits",
    "QueryIndex",
    "kmer_codes",
    "find_seeds",
    "two_hit_filter",
    "low_complexity_intervals",
    "mask_low_complexity",
    "format_pairwise",
    "extend_seeds_ungapped",
    "GappedExtension",
    "extend_gapped",
    "BlastEngine",
    "SearchResult",
    "smith_waterman_score",
    "format_tabular",
]
