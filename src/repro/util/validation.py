"""Small argument-validation helpers used across the library.

These keep public entry points honest (fail fast with a clear message)
without littering every function with ad-hoc ``if`` chains.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def check_positive(name: str, value: Number) -> Number:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_nonnegative(name: str, value: Number) -> Number:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_fraction(name: str, value: Number, inclusive: bool = True) -> Number:
    """Require ``value`` in [0, 1] (or (0, 1) when ``inclusive=False``)."""
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value
