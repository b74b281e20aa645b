"""Tests for Stopwatch."""

import time

import pytest

from repro.util.timers import Stopwatch


class TestStopwatch:
    def test_measures_elapsed(self):
        sw = Stopwatch().start()
        time.sleep(0.01)
        elapsed = sw.stop()
        assert elapsed >= 0.009

    def test_context_manager(self):
        with Stopwatch() as sw:
            time.sleep(0.005)
        assert sw.elapsed >= 0.004
        assert not sw.running

    def test_accumulates_across_segments(self):
        sw = Stopwatch()
        sw.start()
        time.sleep(0.005)
        first = sw.stop()
        sw.start()
        time.sleep(0.005)
        total = sw.stop()
        assert total > first

    def test_double_start_rejected(self):
        sw = Stopwatch().start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_live_elapsed_while_running(self):
        sw = Stopwatch().start()
        time.sleep(0.005)
        assert sw.elapsed > 0.0
        sw.stop()
