"""Tests for the admission filter and unified-index machinery."""

import numpy as np
import pytest

from repro.core import unified_index
from repro.core.admission import AdmissionFilter
from repro.core.unified_index import (
    UnifiedIndexTuner,
    is_dram_pointer,
    tag_cache_location,
    tag_dram_pointer,
    untag,
)
from repro.errors import ConfigError


class TestAdmissionFilter:
    def test_probability_one_admits_all(self):
        f = AdmissionFilter(1.0)
        keys = np.arange(100, dtype=np.uint64)
        assert f.admit(keys).all()

    def test_probability_controls_rate(self):
        f = AdmissionFilter(0.25, seed=1)
        keys = np.arange(40_000, dtype=np.uint64)
        rate = f.admit(keys).mean()
        assert rate == pytest.approx(0.25, abs=0.02)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigError):
            AdmissionFilter(0.0)
        with pytest.raises(ConfigError):
            AdmissionFilter(1.5)


class TestPointerTagging:
    def test_cache_locations_untagged(self):
        locs = np.array([0, 5, 123456], np.uint64)
        tagged = tag_cache_location(locs)
        assert not is_dram_pointer(tagged).any()
        np.testing.assert_array_equal(untag(tagged), locs)

    def test_dram_pointers_tagged(self):
        rows = np.array([7, 99], np.uint64)
        tagged = tag_dram_pointer(rows)
        assert is_dram_pointer(tagged).all()
        np.testing.assert_array_equal(untag(tagged), rows)

    def test_lsb_is_the_tag(self):
        # Paper §3.3: "set the least significant bit of pointers".
        assert int(tag_dram_pointer(np.array([0], np.uint64))[0]) & 1 == 1
        assert int(tag_cache_location(np.array([0], np.uint64))[0]) & 1 == 0

    def test_split_pointers(self):
        mixed = np.concatenate([
            tag_cache_location(np.array([1], np.uint64)),
            tag_dram_pointer(np.array([2], np.uint64)),
        ])
        assert is_dram_pointer(mixed).tolist() == [False, True]
        assert untag(mixed).tolist() == [1, 2]


class TestUnifiedIndexTuner:
    @pytest.fixture()
    def window(self, monkeypatch):
        """Sets the tuner's window length for the test."""
        return lambda n: monkeypatch.setattr(unified_index, "TUNER_WINDOW", n)

    def _feed_window(self, tuner, latency):
        decision = None
        for _ in range(unified_index.TUNER_WINDOW):
            decision = tuner.observe(latency)
        return decision

    def test_holds_within_a_window(self):
        t = UnifiedIndexTuner(max_capacity=800)
        for _ in range(3):
            assert t.observe(10.0).action == "hold"
        assert t.capacity == 0

    def test_grows_while_windows_improve(self, window):
        window(2)
        t = UnifiedIndexTuner(max_capacity=800)
        decision = self._feed_window(t, 10.0)
        assert decision.action == "grow"
        self._feed_window(t, 9.0)
        self._feed_window(t, 8.0)
        assert t.capacity == 300

    def test_backs_off_when_a_step_hurts(self, window):
        window(2)
        t = UnifiedIndexTuner(max_capacity=800)
        self._feed_window(t, 10.0)  # -> 100
        self._feed_window(t, 9.0)   # -> 200
        decision = self._feed_window(t, 9.5)  # worse: reverse
        assert decision.action == "backoff"
        assert t.capacity == 100

    def test_oscillates_around_optimum_not_past_it(self, window):
        """If more capacity always hurts, the tuner hugs zero."""
        window(1)
        t = UnifiedIndexTuner(max_capacity=800)
        latency_of = lambda cap: 1.0 + cap / 100.0
        for _ in range(20):
            t.observe(latency_of(t.capacity))
        assert t.capacity <= 200

    def test_resets_on_significant_decline(self, window):
        window(2)
        t = UnifiedIndexTuner(max_capacity=800)
        self._feed_window(t, 10.0)
        self._feed_window(t, 9.0)
        decision = self._feed_window(t, 20.0)  # workload change
        assert decision.action == "reset"
        assert t.capacity == 0

    def test_capacity_bounded(self, window):
        window(1)
        t = UnifiedIndexTuner(max_capacity=150)
        for _ in range(10):
            t.observe(1.0)
        assert 0 <= t.capacity <= 150

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            UnifiedIndexTuner(max_capacity=-1)

    def test_regrows_after_reset(self, window):
        window(1)
        t = UnifiedIndexTuner(max_capacity=400)
        t.observe(10.0)
        t.observe(50.0)  # reset
        decision = t.observe(10.0)
        assert t.capacity > 0
        assert decision.action == "grow"
