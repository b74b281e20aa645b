"""Orion's fragment-overlap model — the paper's Equation 1.

The overlap must be long enough that any alignment passing the three BLAST
thresholds leaves, in at least one of the two fragments sharing a boundary,
a sub-alignment that itself passes. The paper derives (Section III-C,
following Karlin–Altschul statistics):

    S_lb = ⌈ ln(K·m·n / E_th) / λ ⌉
    L    = max(k, S_lb / p)

where m, n are the *effective* lengths of query and database, p is the
match reward, and k the seed word size (the floor guarantees no k-mer match
straddles a boundary undetected).
"""

from __future__ import annotations

from math import ceil

from repro.blast.params import BlastParams
from repro.blast.statistics import (
    KarlinAltschulParams,
    SearchSpace,
    minimum_significant_score,
)


def shortest_significant_alignment(
    ka: KarlinAltschulParams, params: BlastParams, space: SearchSpace
) -> int:
    """The paper's ``S_lb``: the smallest score that still passes the E test."""
    return minimum_significant_score(ka, params.evalue_threshold, space)


def overlap_length(
    ka: KarlinAltschulParams, params: BlastParams, space: SearchSpace
) -> int:
    """Equation 1: ``L = max(k, ⌈S_lb / p⌉)`` in base pairs.

    ``S_lb / p`` converts the score bound into bases of perfect match (each
    matching base contributes the reward ``p``); the ceiling keeps L integral
    and conservative. The ``max`` handles the degenerate tiny-search-space
    case the paper notes, where the k-mer width dominates.
    """
    s_lb = shortest_significant_alignment(ka, params, space)
    bases = ceil(s_lb / params.reward)
    return max(params.k, bases)
