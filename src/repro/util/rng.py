"""Deterministic random-number plumbing.

All stochastic components of the reproduction (sequence generators, mutation
models, samplers inside the result sort, failure injectors in the cluster
simulator) draw from :class:`numpy.random.Generator` objects created here.
Seeds are derived hierarchically with :func:`derive_rng` so that adding a new
consumer never perturbs the stream an existing consumer sees.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

Seedish = Union[int, None, np.random.Generator, "RngStream"]

_DERIVE_MOD = 0x9E3779B97F4A7C15  # golden-ratio mixing constant
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(seed: int, salt: str) -> int:
    """Mix an integer seed with a string salt into a 64-bit child seed."""
    h = (seed * _DERIVE_MOD) & _MASK64
    for ch in salt:
        h = ((h ^ ord(ch)) * _DERIVE_MOD) & _MASK64
    return h


class RngStream:
    """A named, seedable random stream with cheap hierarchical children.

    Parameters
    ----------
    seed:
        Root seed. ``None`` picks a fixed default (0) rather than entropy,
        because this library is a *reproduction*: identical invocations must
        produce identical outputs unless the caller opts into a new seed.
    name:
        Label mixed into child derivations; useful in logs.
    """

    def __init__(self, seed: Optional[int] = 0, name: str = "root") -> None:
        if seed is None:
            seed = 0
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self.name = name
        self.generator = np.random.default_rng(self.seed)

    def child(self, salt: str) -> "RngStream":
        """Derive an independent child stream keyed by ``salt``."""
        return RngStream(_mix(self.seed, salt), name=f"{self.name}/{salt}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, name={self.name!r})"


def derive_rng(seed: Seedish, salt: str = "") -> np.random.Generator:
    """Coerce any seed-ish value into a :class:`numpy.random.Generator`.

    Accepts an int seed, ``None`` (fixed default stream), an existing
    Generator (returned as-is; salt ignored) or an :class:`RngStream`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngStream):
        return (seed.child(salt) if salt else seed).generator
    base = RngStream(seed if seed is not None else 0)
    return (base.child(salt) if salt else base).generator
