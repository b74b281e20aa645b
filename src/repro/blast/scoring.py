"""Scoring scheme: per-pair substitution scores and the score distribution.

For nucleotide BLAST the substitution "matrix" is two-valued (reward on
match, penalty on mismatch). This module exposes both the vectorized pairwise
scorer used in the extension hot paths and the score *probability mass
function* the Karlin–Altschul solvers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.blast.params import BlastParams
from repro.sequence.alphabet import ALPHABET_SIZE


@dataclass(frozen=True)
class ScoringScheme:
    """Match/mismatch scoring plus background base frequencies.

    ``base_freqs`` defaults to uniform (0.25 each), which is both the NCBI
    convention for blastn statistics and our synthetic generator's default.
    """

    reward: int
    penalty: int
    base_freqs: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self) -> None:
        if self.reward <= 0:
            raise ValueError(f"reward must be positive, got {self.reward}")
        if self.penalty >= 0:
            raise ValueError(f"penalty must be negative, got {self.penalty}")
        freqs = np.asarray(self.base_freqs, dtype=np.float64)
        if freqs.shape != (ALPHABET_SIZE,):
            raise ValueError(f"base_freqs must have {ALPHABET_SIZE} entries")
        if np.any(freqs <= 0) or not np.isclose(freqs.sum(), 1.0):
            raise ValueError("base_freqs must be positive and sum to 1")

    @classmethod
    def from_params(
        cls,
        params: BlastParams,
        base_freqs: Optional[Tuple[float, float, float, float]] = None,
    ) -> "ScoringScheme":
        if base_freqs is None:
            return cls(reward=params.reward, penalty=params.penalty)
        return cls(reward=params.reward, penalty=params.penalty, base_freqs=base_freqs)

    @property
    def match_probability(self) -> float:
        """P(two background bases are equal) = Σ pᵢ²."""
        freqs = np.asarray(self.base_freqs)
        return float(np.dot(freqs, freqs))

    def score_pmf(self) -> Dict[int, float]:
        """Probability mass function over per-pair scores.

        For two-valued nucleotide scoring this has (at most) two support
        points: ``{reward: p_match, penalty: 1 - p_match}``. Returned as a
        dict so the K-computation can handle general distributions.
        """
        p = self.match_probability
        pmf = {self.reward: p, self.penalty: 1.0 - p}
        return {s: pr for s, pr in pmf.items() if pr > 0.0}

    def expected_score(self) -> float:
        """Mean per-pair score; must be negative for the statistics to hold."""
        return float(sum(s * p for s, p in self.score_pmf().items()))
