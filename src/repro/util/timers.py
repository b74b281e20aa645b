"""Wall-clock measurement helpers.

The cluster simulator works in *simulated* seconds derived from measured
per-task durations; :class:`Stopwatch` is the single place real time is read
so the two notions of time stay clearly separated.
"""

from __future__ import annotations

import time
from typing import Optional


class Stopwatch:
    """A simple start/stop wall-clock timer built on ``perf_counter``.

    Can be used as a context manager::

        with Stopwatch() as sw:
            work()
        print(sw.elapsed)
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0
        self.running = False

    def start(self) -> "Stopwatch":
        if self.running:
            raise RuntimeError("stopwatch already running")
        self._start = time.perf_counter()
        self.running = True
        return self

    def stop(self) -> float:
        if not self.running or self._start is None:
            raise RuntimeError("stopwatch is not running")
        self._elapsed += time.perf_counter() - self._start
        self.running = False
        self._start = None
        return self._elapsed

    @property
    def elapsed(self) -> float:
        """Total accumulated seconds (includes the live segment if running)."""
        if self.running and self._start is not None:
            return self._elapsed + (time.perf_counter() - self._start)
        return self._elapsed

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self.running:
            self.stop()
