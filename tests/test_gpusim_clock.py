"""Tests for the simulator timelines."""

import pytest

from repro.errors import SimulationError
from repro.gpusim.clock import Timeline


class TestTimeline:
    def test_starts_at_zero(self):
        assert Timeline("t").now == 0.0

    def test_custom_start(self):
        t = Timeline("t")
        t.advance_to(2.5)
        assert t.now == 2.5
        assert t.active == 0.0

    def test_advance_accumulates(self):
        t = Timeline("t")
        t.advance(1.0)
        t.advance(0.5)
        assert t.now == pytest.approx(1.5)

    def test_advance_returns_new_time(self):
        t = Timeline("t")
        assert t.advance(3.0) == pytest.approx(3.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(SimulationError):
            Timeline("t").advance(-1.0)

    def test_advance_zero_is_noop(self):
        t = Timeline("t")
        t.advance(0.0)
        assert t.now == 0.0

    def test_advance_to_future(self):
        t = Timeline("t")
        t.advance_to(4.0)
        assert t.now == 4.0

    def test_advance_to_past_is_noop(self):
        t = Timeline("t")
        t.advance_to(5.0)
        t.advance_to(1.0)
        assert t.now == 5.0

    def test_reset(self):
        t = Timeline("t")
        t.advance(9.0)
        t.reset()
        assert t.now == 0.0
