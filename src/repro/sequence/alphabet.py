"""Nucleotide alphabet and 2-bit encoding.

Sequences are held as ``uint8`` NumPy arrays with ``A=0, C=1, G=2, T=3``.
Everything downstream (lookup tables, extension scans, DP rows) operates on
these code arrays so the hot paths are pure vectorized NumPy, per the
HPC-Python guidance (vectorize loops, mind copies and cache behaviour).
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Canonical base order; index in this string is the 2-bit code.
BASES = "ACGT"

#: Number of symbols in the nucleotide alphabet.
ALPHABET_SIZE = 4

# Build the 256-entry encode table once. Unknown characters (incl. the
# ambiguity code 'N') map to a sentinel that never matches a real base.
UNKNOWN_CODE = np.uint8(255)
_ENCODE_TABLE = np.full(256, UNKNOWN_CODE, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _ENCODE_TABLE[ord(_b)] = _i
    _ENCODE_TABLE[ord(_b.lower())] = _i

_DECODE_TABLE = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)

#: code -> complement code (A<->T, C<->G).
_COMPLEMENT_TABLE = np.array([3, 2, 1, 0], dtype=np.uint8)

SeqLike = Union[str, bytes, np.ndarray]


def encode(seq: SeqLike) -> np.ndarray:
    """Encode a nucleotide string/bytes into a 2-bit code array.

    Already-encoded ``uint8`` arrays pass through without copying. Characters
    outside ``ACGTacgt`` (e.g. ``N``) become :data:`UNKNOWN_CODE`, which the
    seeding and extension stages treat as a universal mismatch.
    """
    if isinstance(seq, np.ndarray):
        if seq.dtype != np.uint8:
            raise TypeError(f"encoded sequences must be uint8, got {seq.dtype}")
        return seq
    if isinstance(seq, str):
        raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    elif isinstance(seq, bytes):
        raw = np.frombuffer(seq, dtype=np.uint8)
    else:
        raise TypeError(f"cannot encode {type(seq).__name__}")
    return _ENCODE_TABLE[raw]


def decode(codes: np.ndarray) -> str:
    """Decode a 2-bit code array back to an ``ACGT`` string.

    Sentinel codes decode to ``N``.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    out = np.full(codes.shape, ord("N"), dtype=np.uint8)
    valid = codes < ALPHABET_SIZE
    out[valid] = _DECODE_TABLE[codes[valid]]
    return out.tobytes().decode("ascii")


def complement(codes: np.ndarray) -> np.ndarray:
    """Base-wise complement of a code array (A<->T, C<->G)."""
    codes = np.asarray(codes, dtype=np.uint8)
    out = np.full(codes.shape, UNKNOWN_CODE, dtype=np.uint8)
    valid = codes < ALPHABET_SIZE
    out[valid] = _COMPLEMENT_TABLE[codes[valid]]
    return out


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Reverse complement (the opposite strand read 5'->3')."""
    return complement(codes)[::-1]


def random_bases(rng: np.random.Generator, length: int, gc: float = 0.5) -> np.ndarray:
    """Draw ``length`` i.i.d. bases with the given GC fraction.

    With ``gc=0.5`` all four bases are equiprobable — the background model the
    Karlin–Altschul statistics in :mod:`repro.blast.statistics` assume.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if not 0.0 <= gc <= 1.0:
        raise ValueError(f"gc must be in [0, 1], got {gc}")
    at = (1.0 - gc) / 2.0
    cg = gc / 2.0
    return rng.choice(
        np.arange(4, dtype=np.uint8), size=length, p=[at, cg, cg, at]
    ).astype(np.uint8)
