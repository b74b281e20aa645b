"""Shared utilities: deterministic RNG plumbing, timers, validation helpers.

Everything in :mod:`repro` that needs randomness or timing goes through this
package so that experiments are reproducible and simulated time never mixes
with wall-clock time by accident.
"""

from repro.util.rng import RngStream, derive_rng
from repro.util.timers import Stopwatch
from repro.util.validation import (
    check_fraction,
    check_nonnegative,
    check_positive,
)

__all__ = [
    "RngStream",
    "derive_rng",
    "Stopwatch",
    "check_fraction",
    "check_nonnegative",
    "check_positive",
]
