"""Tests for the windowed time-series collector."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, SimulationError
from repro.obs import (
    WORKLOAD_SERIES,
    WindowedCollector,
    MetricsRegistry,
    jensen_shannon,
)
from repro.obs import timeseries
from repro.obs.timeseries import WindowRecord
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


def _bound(collector=None, **kwargs):
    collector = collector or WindowedCollector(**kwargs)
    return collector.bind(MetricsRegistry())


class TestJensenShannon:
    def test_identical_distributions_are_zero(self):
        p = {"0": 5.0, "1": 3.0}
        assert jensen_shannon(p, dict(p)) == 0.0

    def test_disjoint_distributions_are_one(self):
        assert jensen_shannon({"0": 4.0}, {"1": 9.0}) == 1.0

    def test_scale_invariant(self):
        p = {"0": 1.0, "1": 3.0}
        q = {"0": 10.0, "1": 30.0}
        assert jensen_shannon(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_empty_distribution_is_nan(self):
        assert math.isnan(jensen_shannon({}, {"0": 1.0}))
        assert math.isnan(jensen_shannon({"0": 1.0}, {"0": 0.0}))

    def test_bit_equal_under_every_hash_seed(self):
        # Twelve labels: summed in set order, this input reads ...637 under
        # one hash seed and ...639 under the others.
        script = (
            "from repro.obs import jensen_shannon\n"
            "p = [25, 49, 27, 3, 17, 33, 32, 26, 20, 31, 23, 38]\n"
            "q = [14, 33, 9, 19, 9, 49, 7, 40, 17, 35, 46, 39]\n"
            "print(repr(jensen_shannon(\n"
            "    {str(i): float(v) for i, v in enumerate(p)},\n"
            "    {str(i): float(v) for i, v in enumerate(q)},\n"
            ")))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        results = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            results.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(results) == 1, results


class TestCollectorConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            WindowedCollector(window=0.0)
        with pytest.raises(ConfigError):
            WindowedCollector(sla_budget=-1e-3)

    def test_unbound_collector_rejects_recording(self):
        collector = WindowedCollector()
        assert collector.registry is None
        with pytest.raises(ConfigError):
            collector.observe_batch(0.0)
        with pytest.raises(ConfigError):
            collector.begin_run(0.0)

    def test_time_going_backwards_rejected(self):
        collector = _bound(window=1e-3)
        collector.observe_batch(5e-3)
        with pytest.raises(SimulationError):
            collector.observe_batch(1e-3)


class TestWindowing:
    def test_deltas_attributed_to_completion_window(self):
        collector = _bound(window=1e-3)
        registry = collector.registry
        registry.inc("cache.hits", 10)
        collector.observe_batch(0.5e-3)      # window 0
        registry.inc("cache.hits", 7)
        collector.observe_batch(1.5e-3)      # closes window 0, lands in 1
        collector.flush(2e-3)
        hits = collector.series("hits")
        assert hits == [10.0, 7.0]
        assert [w.index for w in collector.windows] == [0, 1]
        assert not collector.windows[0].partial

    def test_summed_deltas_reproduce_registry_diff(self):
        collector = _bound(window=1e-3)
        registry = collector.registry
        before = registry.snapshot()
        for i in range(7):
            registry.inc("cache.hits", 3 * i)
            registry.inc("cache.misses", i)
            collector.observe_batch(i * 0.4e-3)
        # Residual activity after the last batch (e.g. retire sweeps).
        registry.inc("cache.misses", 5)
        collector.flush(3e-3)
        diff = registry.snapshot().diff(before)
        assert sum(collector.series("hits")) == diff.counter("cache.hits")
        assert sum(collector.series("misses")) == diff.counter("cache.misses")

    def test_ring_buffer_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(timeseries, "CAPACITY", 4)
        collector = _bound(window=1e-3)
        for i in range(10):
            collector.registry.inc("cache.hits")
            collector.observe_batch(i * 1e-3 + 0.5e-3)
        collector.flush()
        assert collector.closed_windows >= 9
        assert len(collector.windows) == 4
        # The retained windows are the newest ones.
        assert collector.windows[-1].index == collector.closed_windows - 1

    def test_idle_gap_produces_empty_windows(self):
        collector = _bound(window=1e-3, sla_budget=1e-3)
        collector.registry.inc("cache.hits", 4)
        collector.observe_batch(0.5e-3, [5e-4])
        collector.observe_batch(3.5e-3)      # 2 idle windows roll past
        collector.flush(4e-3)
        empty = collector.windows[1]
        assert empty.value("requests") == 0.0
        assert empty.value("hits") == 0.0
        assert math.isnan(empty.values["latency_p50_s"])
        assert math.isnan(empty.values["sla_attainment"])

    def test_flush_closes_trailing_partial_window(self):
        collector = _bound(window=1e-3)
        collector.registry.inc("cache.hits", 2)
        collector.observe_batch(1.2e-3)
        collector.flush(1.6e-3)
        assert collector.windows[-1].partial
        assert collector.windows[-1].end == pytest.approx(1.6e-3)

    def test_begin_run_absorbs_interrun_noise(self):
        collector = _bound(window=1e-3)
        registry = collector.registry
        registry.inc("cache.hits", 100)      # warmup noise between runs
        collector.begin_run(0.0)
        registry.inc("cache.hits", 6)
        collector.observe_batch(0.5e-3)
        collector.flush(1e-3)
        assert sum(collector.series("hits")) == 6.0

    def test_begin_run_resets_when_clock_restarts(self):
        collector = _bound(window=1e-3)
        collector.registry.inc("cache.hits", 2)
        collector.observe_batch(5e-3)
        collector.flush()
        assert collector.closed_windows > 0
        collector.begin_run(0.0)             # simulated clock restarted
        assert collector.closed_windows == 0
        assert not collector.windows

    def test_sla_series(self):
        collector = _bound(window=1e-3, sla_budget=1e-3)
        collector.observe_batch(0.5e-3, [5e-4, 9e-4, 2e-3, 3e-3])
        collector.flush(1e-3)
        window = collector.windows[0]
        assert window.value("requests") == 4.0
        assert window.value("sla_bad") == 2.0
        assert window.value("sla_attainment") == pytest.approx(0.5)

    def test_window_record_value_defaults_nan(self):
        record = WindowRecord(0, 0.0, 1.0, values={"x": float("nan")})
        assert record.value("x", 7.0) == 7.0
        assert record.value("missing", 3.0) == 3.0
        assert record.to_dict()["values"]["x"] is None


class TestDriftDetector:
    def test_hotspot_shift_flagged(self):
        collector = _bound(window=1e-3)
        registry = collector.registry
        # Window 0: traffic concentrated on table 0.
        registry.inc("cache.table_hits", 90, table="0")
        registry.inc("cache.table_hits", 10, table="1")
        collector.observe_batch(0.5e-3)
        # Window 1: same distribution -> low divergence, no flag.
        registry.inc("cache.table_hits", 88, table="0")
        registry.inc("cache.table_hits", 12, table="1")
        collector.observe_batch(1.5e-3)
        # Window 2: hotspot jumps to table 1 -> flagged.
        registry.inc("cache.table_hits", 5, table="0")
        registry.inc("cache.table_hits", 95, table="1")
        collector.observe_batch(2.5e-3)
        collector.flush(3e-3)
        drift = collector.series("hotspot_drift")
        assert math.isnan(drift[0])          # nothing to compare against
        assert drift[1] < 0.08 < drift[2]
        assert [w for w, _ in collector.drift_events] == [2]
        assert collector.series("drift_flag")[2] == 1.0

    def test_falls_back_to_lookup_distribution(self):
        collector = _bound(window=1e-3)
        registry = collector.registry
        registry.inc("cache.table_lookups", 50, table="0")
        collector.observe_batch(0.5e-3)
        registry.inc("cache.table_lookups", 50, table="3")
        collector.observe_batch(1.5e-3)
        collector.flush(2e-3)
        assert collector.series("hotspot_drift")[1] == pytest.approx(1.0)
        assert collector.drift_events


class _ServingRuns:
    """Pipelined runs with a collector attached, for integration tests."""

    @staticmethod
    def run(hw, depth, rate=150_000.0, num_requests=400, window=1e-3):
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
        )
        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.1), hw)
        collector = WindowedCollector(window=window, sla_budget=2e-3)
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=depth,
            policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
            collector=collector,
        )
        requests = PoissonArrivals(dataset, rate, seed=3).generate(
            num_requests
        )
        report = server.serve(requests)
        return report, collector


class TestServingIntegration:
    def test_identical_runs_yield_byte_identical_series(self, hw):
        _, collector_a = _ServingRuns.run(hw, depth=2)
        _, collector_b = _ServingRuns.run(hw, depth=2)
        payload_a = json.dumps(collector_a.to_payload(), sort_keys=True)
        payload_b = json.dumps(collector_b.to_payload(), sort_keys=True)
        assert payload_a == payload_b
        assert collector_a.closed_windows > 0

    def test_depths_agree_on_workload_series_when_unsaturated(self, hw):
        """At non-saturating load the pipeline depth changes resource
        timing but not the request stream, so every workload-derived
        series must match window for window."""
        report1, collector1 = _ServingRuns.run(hw, depth=1)
        report2, collector2 = _ServingRuns.run(hw, depth=2)
        assert report1.served == report2.served
        assert collector1.closed_windows == collector2.closed_windows
        for name in WORKLOAD_SERIES:
            series1 = collector1.series(name)
            series2 = collector2.series(name)
            assert len(series1) == len(series2)
            for a, b in zip(series1, series2):
                if math.isnan(a) and math.isnan(b):
                    continue
                assert a == pytest.approx(b, rel=1e-9), (name, series1, series2)

    def test_windows_sum_to_report_totals(self, hw):
        report, collector = _ServingRuns.run(hw, depth=2)
        assert sum(collector.series("requests")) == report.served
        counters = report.metrics.to_dict()["counters"]
        assert sum(collector.series("hits")) == counters["cache.hits"]
        assert sum(collector.series("misses")) == counters["cache.misses"]

    def test_payload_is_json_strict(self, hw):
        _, collector = _ServingRuns.run(hw, depth=2)
        payload = collector.to_payload()
        text = json.dumps(payload, allow_nan=False, sort_keys=True)
        assert json.loads(text)["kind"] == "series"
