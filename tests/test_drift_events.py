"""Tests for ``WindowedCollector.drift_events`` under hard phase changes.

The Jensen-Shannon drift detector compares consecutive windows'
per-table hit distributions; a hard working-set shift must flag exactly
once per change (the transition window), then resolve — and the strict
``>`` threshold comparison means a divergence exactly *at* the
threshold never flags.
"""

from repro.obs import WindowedCollector, jensen_shannon
from repro.obs import timeseries
from conftest import HandRun

#: Two phase distributions with a large divergence between them.
PHASE_A = {0: 80, 1: 15, 2: 5}
PHASE_B = {3: 70, 4: 20, 5: 10}


def _bound():
    return WindowedCollector(window=1e-3)


def _feed_window(run, index, dist):
    """One window of per-table hits following ``dist``."""
    for table, count in dist.items():
        run.registry.inc("cache.table_hits", count, table=table)
        run.registry.inc("cache.table_lookups", count, table=table)
    run.batch((index + 0.5) * 1e-3)


def _run_phases(collector, phases):
    """``phases`` is a list of (distribution, window count)."""
    run = HandRun(collector)
    index = 0
    for dist, windows in phases:
        for _ in range(windows):
            _feed_window(run, index, dist)
            index += 1
    run.close(index * 1e-3)
    return collector


class TestHardPhaseChange:
    def test_fires_exactly_once_per_change(self):
        collector = _run_phases(_bound(), [(PHASE_A, 5), (PHASE_B, 5)])
        assert len(collector.drift_events) == 1
        window_index, score = collector.drift_events[0]
        assert window_index == 5           # the transition window
        assert score > timeseries.DRIFT_THRESHOLD

    def test_resolves_after_transition(self):
        collector = _run_phases(_bound(), [(PHASE_A, 3), (PHASE_B, 6)])
        # Windows 4..8 are steady on PHASE_B: drift is back to ~0, so
        # the flag series shows a single pulse, not a level shift.
        flags = collector.series("drift_flag")
        assert flags[3] == 1.0
        assert all(f == 0.0 for f in flags[4:])

    def test_two_changes_fire_twice(self):
        collector = _run_phases(
            _bound(), [(PHASE_A, 4), (PHASE_B, 4), (PHASE_A, 4)],
        )
        assert [w for w, _ in collector.drift_events] == [4, 8]

    def test_steady_state_never_fires(self):
        collector = _run_phases(_bound(), [(PHASE_A, 10)])
        assert collector.drift_events == []

    def test_first_window_has_no_baseline(self):
        collector = _run_phases(_bound(), [(PHASE_B, 1)])
        assert collector.drift_events == []


class TestThresholdBoundary:
    def _divergence(self):
        """Exact divergence of one PHASE_A -> PHASE_B transition."""
        return jensen_shannon(
            {str(k): float(v) for k, v in PHASE_B.items()},
            {str(k): float(v) for k, v in PHASE_A.items()},
        )

    def test_exactly_at_threshold_does_not_fire(self, monkeypatch):
        # Strict ``>``: a transition whose divergence equals the
        # threshold bit-for-bit is *not* an event.
        d = self._divergence()
        monkeypatch.setattr(timeseries, "DRIFT_THRESHOLD", d)
        collector = _run_phases(_bound(), [(PHASE_A, 3), (PHASE_B, 3)])
        assert collector.drift_events == []
        assert all(f == 0.0 for f in collector.series("drift_flag"))

    def test_just_below_threshold_fires(self, monkeypatch):
        d = self._divergence()
        monkeypatch.setattr(timeseries, "DRIFT_THRESHOLD", d * (1.0 - 1e-12))
        collector = _run_phases(_bound(), [(PHASE_A, 3), (PHASE_B, 3)])
        assert len(collector.drift_events) == 1

    def test_payload_carries_events(self):
        collector = _run_phases(_bound(), [(PHASE_A, 3), (PHASE_B, 3)])
        payload = collector.to_payload()
        assert payload["drift_events"] == [
            {"window": 3, "divergence": collector.drift_events[0][1]},
        ]
