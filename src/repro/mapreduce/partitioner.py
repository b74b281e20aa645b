"""Partitioners: map shuffle keys to reducer indices.

Python's builtin ``hash`` is randomized per process for strings, which would
make reducer assignment (and thus task-duration records) non-deterministic
across runs; partitioning therefore uses CRC32 over a canonical byte
rendering of the key.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable

Partitioner = Callable[[Any, int], int]


def _key_bytes(key: Any) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (int, float, bool)):
        return repr(key).encode("ascii")
    if isinstance(key, tuple):
        return b"\x00".join(_key_bytes(k) for k in key)
    raise TypeError(f"unhashable shuffle key type for partitioning: {type(key).__name__}")


def hash_partitioner(key: Any, num_partitions: int) -> int:
    """Deterministic hash partitioning (Hadoop's default behaviour)."""
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    return zlib.crc32(_key_bytes(key)) % num_partitions
