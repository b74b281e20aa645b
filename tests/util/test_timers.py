"""Tests for Stopwatch and duration formatting."""

import time

import pytest

from repro.util.timers import Stopwatch, format_seconds


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

    def test_reset(self):
        sw = Stopwatch().start()
        sw.stop()
        sw.reset()
        assert sw.elapsed == 0.0

    def test_live_elapsed_while_running(self):
        sw = Stopwatch().start()
        time.sleep(0.005)
        assert sw.elapsed > 0.0
        sw.stop()


class TestFormatSeconds:
    def test_milliseconds(self):
        assert format_seconds(0.95) == "950ms"

    def test_seconds(self):
        assert format_seconds(12.34) == "12.3s"

    def test_minutes(self):
        assert format_seconds(272) == "4m32s"

    def test_hours(self):
        assert format_seconds(2 * 3600 + 5 * 60) == "2h05m"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(-1)
