"""Point-mutation / indel evolution model for synthetic homologies.

Planted homologies are produced by copying a donor region and "evolving" it:
substitutions create the mismatches BLAST's ungapped phase tolerates, and
short insertions/deletions create the gaps its gapped phase handles. Rates are
per-base probabilities, so divergence is directly controllable — the knob that
determines alignment scores and hence which alignments pass the E-value test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE
from repro.util.validation import check_fraction, check_positive


@dataclass(frozen=True)
class MutationModel:
    """Per-base mutation probabilities.

    Attributes
    ----------
    substitution_rate:
        Probability each base is replaced by a different uniformly chosen base.
    insertion_rate:
        Probability a short random insertion is placed *after* each base.
    deletion_rate:
        Probability each base is deleted.
    max_indel_length:
        Indel lengths are uniform in ``[1, max_indel_length]``.
    """

    substitution_rate: float = 0.05
    insertion_rate: float = 0.0
    deletion_rate: float = 0.0
    max_indel_length: int = 3

    def __post_init__(self) -> None:
        check_fraction("substitution_rate", self.substitution_rate)
        check_fraction("insertion_rate", self.insertion_rate)
        check_fraction("deletion_rate", self.deletion_rate)
        check_positive("max_indel_length", self.max_indel_length)
        if self.insertion_rate + self.deletion_rate > 0.5:
            raise ValueError("combined indel rate above 0.5 is not a homology")

    @classmethod
    def identity(cls) -> "MutationModel":
        """No mutation at all (exact copy)."""
        return cls(substitution_rate=0.0, insertion_rate=0.0, deletion_rate=0.0)

    @classmethod
    def close_homolog(cls) -> "MutationModel":
        """~5% substitutions, sparse short indels — a conserved element."""
        return cls(substitution_rate=0.05, insertion_rate=0.005, deletion_rate=0.005)

    @classmethod
    def distant_homolog(cls) -> "MutationModel":
        """~15% substitutions plus indels — near the edge of detectability."""
        return cls(substitution_rate=0.15, insertion_rate=0.01, deletion_rate=0.01)


def _substitute(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    """Vectorized substitutions: add 1..3 (mod 4) at selected positions."""
    if rate == 0.0 or codes.size == 0:
        return codes.copy()
    out = codes.copy()
    hit = rng.random(codes.size) < rate
    n_hits = int(hit.sum())
    if n_hits:
        shifts = rng.integers(1, ALPHABET_SIZE, size=n_hits).astype(np.uint8)
        out[hit] = (out[hit] + shifts) % ALPHABET_SIZE
    return out


def apply_mutations(
    rng: np.random.Generator,
    codes: np.ndarray,
    model: MutationModel,
) -> np.ndarray:
    """Return an evolved copy of ``codes`` under ``model``.

    Substitutions are applied first (vectorized), then indels in one
    left-to-right splice pass so coordinates shift consistently.
    """
    mutated = _substitute(rng, codes, model.substitution_rate)
    if model.insertion_rate == 0.0 and model.deletion_rate == 0.0:
        return mutated
    return _apply_indels(rng, mutated, model)


def _apply_indels(
    rng: np.random.Generator, codes: np.ndarray, model: MutationModel
) -> np.ndarray:
    n = codes.size
    deleted = rng.random(n) < model.deletion_rate
    insert_after = np.flatnonzero(rng.random(n) < model.insertion_rate)
    pieces: List[np.ndarray] = []
    cursor = 0
    keep = ~deleted
    for pos in insert_after:
        pieces.append(codes[cursor : pos + 1][keep[cursor : pos + 1]])
        ins_len = int(rng.integers(1, model.max_indel_length + 1))
        pieces.append(rng.integers(0, ALPHABET_SIZE, size=ins_len).astype(np.uint8))
        cursor = pos + 1
    pieces.append(codes[cursor:][keep[cursor:]])
    return np.concatenate(pieces) if pieces else codes[:0]
