"""Tests for the declarative SLO / burn-rate alerting engine."""

import pytest

from repro import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError
from repro.faults import (
    DegradeConfig,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    ShardOutage,
)
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.obs import BurnRateRule, Slo, SloEngine, WindowedCollector, default_serving_slos
from repro.obs.alerts import FIRING, RESOLVED
from repro.obs.timeseries import WindowRecord
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.workloads.synthetic import uniform_tables_spec


def _window(index, bad, total, width=1e-3):
    return WindowRecord(
        index=index, start=index * width, end=(index + 1) * width,
        values={"sla_bad": float(bad), "requests": float(total)},
    )


def _engine(lookback=1, threshold=10.0, resolve_after=2):
    return SloEngine(
        [Slo("latency", objective=0.99)],
        [BurnRateRule("fast", "latency", lookback=lookback,
                      threshold=threshold, resolve_after=resolve_after)],
    )


class TestDeclarations:
    def test_slo_objective_bounds(self):
        with pytest.raises(ConfigError):
            Slo("bad", objective=0.0)
        with pytest.raises(ConfigError):
            Slo("bad", objective=1.0)
        assert Slo("ok", objective=0.99).error_budget == pytest.approx(0.01)

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            BurnRateRule("r", "latency", lookback=0)
        with pytest.raises(ConfigError):
            BurnRateRule("r", "latency", threshold=0.0)
        with pytest.raises(ConfigError):
            BurnRateRule("r", "latency", resolve_after=0)

    def test_engine_rejects_duplicates_and_unknown_slos(self):
        slo = Slo("latency", objective=0.99)
        with pytest.raises(ConfigError):
            SloEngine([slo, slo], [])
        with pytest.raises(ConfigError):
            SloEngine([slo], [BurnRateRule("r", "nope")])
        rule = BurnRateRule("r", "latency")
        with pytest.raises(ConfigError):
            SloEngine([slo], [rule, rule])

    def test_default_catalogue(self):
        engine = default_serving_slos(2e-3)
        assert set(engine.slos) == {"latency", "degraded"}
        assert {r.name for r in engine.rules} == {
            "latency-fast", "latency-slow", "degraded-fast"
        }
        with pytest.raises(ConfigError):
            default_serving_slos(0.0)


class TestBurnRate:
    def test_burn_rate_math(self):
        engine = _engine(lookback=2)
        windows = [_window(0, 1, 100), _window(1, 3, 100)]
        # (4 bad / 200 total) / 0.01 budget = 2x burn.
        burn = engine.burn_rate(engine.rules[0], windows)
        assert burn == pytest.approx(2.0)

    def test_no_traffic_is_zero_burn(self):
        engine = _engine()
        assert engine.burn_rate(engine.rules[0], [_window(0, 0, 0)]) == 0.0

    def test_lookback_limits_history(self):
        engine = _engine(lookback=1)
        windows = [_window(0, 100, 100), _window(1, 0, 100)]
        assert engine.burn_rate(engine.rules[0], windows) == 0.0


class TestAlertLifecycle:
    def test_fire_peak_and_resolve(self):
        engine = _engine(threshold=10.0, resolve_after=2)
        # Window 0: burn 20x -> fires at the window end.
        changed = engine.evaluate([_window(0, 20, 100)])
        assert [a.state for a in changed] == [FIRING]
        alert = changed[0]
        assert alert.fired_at == pytest.approx(1e-3)
        assert alert.fired_window == 0
        assert engine.firing == [alert]
        # Window 1: burn climbs to 50x -> same alert, peak updates.
        engine.evaluate([_window(0, 20, 100), _window(1, 50, 100)])
        assert engine.firing == [alert]
        assert alert.peak_burn_rate == pytest.approx(50.0)
        # One calm window is not enough to resolve.
        engine.evaluate([_window(1, 50, 100), _window(2, 0, 100)])
        assert alert.firing
        # Second consecutive calm window resolves at its end.
        changed = engine.evaluate([_window(2, 0, 100), _window(3, 0, 100)])
        assert [a.state for a in changed] == [RESOLVED]
        assert alert.resolved_window == 3
        assert alert.duration() == pytest.approx(3e-3)
        assert not engine.firing
        assert engine.history("fast") == [alert]

    def test_calm_streak_resets_on_reburn(self):
        engine = _engine(threshold=10.0, resolve_after=2)
        engine.evaluate([_window(0, 20, 100)])
        engine.evaluate([_window(1, 0, 100)])     # calm 1
        engine.evaluate([_window(2, 20, 100)])    # burns again
        engine.evaluate([_window(3, 0, 100)])     # calm 1 (again)
        assert engine.firing
        engine.evaluate([_window(4, 0, 100)])     # calm 2 -> resolves
        assert not engine.firing
        assert len(engine.alerts) == 1            # one incident, not two

    def test_empty_window_history_is_noop(self):
        engine = _engine()
        assert engine.evaluate([]) == []

    def test_detect_and_recover_clocks(self):
        engine = _engine(threshold=10.0, resolve_after=1)
        assert engine.time_to_detect(0.0) is None
        engine.evaluate([_window(3, 50, 100)])
        assert engine.time_to_detect(2e-3) == pytest.approx(2e-3)
        # Open alert -> recovery unknown.
        assert engine.time_to_recover(4e-3) is None
        engine.evaluate([_window(3, 50, 100), _window(4, 0, 100)])
        assert engine.time_to_recover(4e-3) == pytest.approx(1e-3)

    def test_payload_shape(self):
        engine = _engine()
        engine.evaluate([_window(0, 50, 100)])
        payload = engine.to_payload()
        assert payload["kind"] == "alerts"
        assert payload["firing"] == ["fast"]
        assert payload["alerts"][0]["state"] == FIRING
        assert payload["slos"][0]["objective"] == pytest.approx(0.99)


class TestOutageDetection:
    """End to end: an injected shard outage must trip a burn-rate alert
    within the outage and resolve after recovery (paper-style TTD/TTR)."""

    HORIZON = 0.06
    SLA = 2.5e-3

    def _outage_run(self, hw):
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=4_000, alpha=-1.2, dim=16,
        )
        outage_start = 0.4 * self.HORIZON
        duration = 0.2 * self.HORIZON
        remote = RemoteParameterServer(
            dataset.table_specs(),
            injector=FaultInjector(FaultSchedule([
                ShardOutage(shard=s, start=outage_start, duration=duration)
                for s in range(4)
            ]), seed=17),
            retry_policy=RetryPolicy.naive(timeout=1e-3),
        )
        store = TieredParameterStore(
            dataset.table_specs(), hw, dram_capacity=800, remote=remote,
            degrade=DegradeConfig(policy="stale"),
        )
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
        engine = default_serving_slos(self.SLA)
        collector = WindowedCollector(
            window=1e-3, sla_budget=self.SLA, engine=engine,
        )
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=2,
            policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        )
        server.observers.append(collector)
        requests = PoissonArrivals(
            dataset, 40_000.0, seed=5
        ).generate_until(self.HORIZON)
        server.serve(requests)
        return engine, outage_start, duration

    def test_outage_fires_and_resolves(self, hw):
        engine, outage_start, duration = self._outage_run(hw)
        assert engine.alerts, "outage produced no alerts"
        ttd = engine.time_to_detect(outage_start)
        assert ttd is not None and ttd < duration
        assert not engine.firing, "alerts still open after recovery"
        ttr = engine.time_to_recover(outage_start + duration)
        assert ttr is not None and ttr > 0
