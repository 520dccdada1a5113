"""Tests for the closed-loop adaptive controller.

Covers the action pipeline (propose -> cooldown -> clamp -> hysteresis
-> execute -> exactly one outcome), the drift-boost enter/revert cycle,
the hit-collapse detector, the conservation law, trace spans, and the
byte-identity contract of a controller that proposes nothing.  The
controller's tunables are module constants; tests monkeypatch them.
"""

from types import SimpleNamespace

import pytest

from repro import FlecheConfig, default_platform
from repro.autotune import (
    APPLIED,
    CLAMPED,
    SET_ADMISSION,
    SUPPRESSED,
    AdaptiveController,
)
from repro.autotune import controller as ctl
from repro.baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from repro.core.precision import PrecisionConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, WindowedCollector
from repro.obs.registry import install_conservation_laws
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import WindowRecord
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


def _stack(quantizing=True, admission=1.0):
    """A fake server exposing exactly what ``attach`` needs."""
    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=3, corpus_size=2_000, alpha=-1.2, dim=16,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    precision = PrecisionConfig(
        fp32_share=0.25, fp16_share=0.25, int8_share=0.5
    ) if quantizing else PrecisionConfig()
    layer = FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, precision=precision), hw,
    )
    if admission < 1.0:
        layer.cache.set_admission_probability(admission)
    registry = install_conservation_laws(MetricsRegistry())
    collector = WindowedCollector(window=1e-3, sla_budget=1e-3)
    collector.bind(registry)
    return SimpleNamespace(
        collector=collector,
        scheme=layer,
        obs=registry,
        tracer=None,
    )


def _window(index, **values):
    return WindowRecord(
        index=index, start=index * 1e-3, end=(index + 1) * 1e-3,
        values=values,
    )


def _feed(controller, windows):
    for win in windows:
        controller._on_window(win)


def _healthy(index, hit_rate=0.9):
    return _window(
        index, hit_rate=hit_rate, sla_attainment=1.0,
        inserts=100.0, evictions=10.0, drift_flag=0.0,
    )


def _warmup(controller, count=4):
    _feed(controller, [_healthy(i) for i in range(count)])


def _prime(controller, ema=0.9, windows=5):
    """Skip past warmup without feeding windows (which would trigger the
    recover guard whenever admission starts below 1.0)."""
    controller._hit_ema = ema
    controller._windows_into_run = windows


class TestConfigValidation:
    def test_attach_requires_collector(self):
        server = _stack()
        server.collector = None
        with pytest.raises(ConfigError):
            AdaptiveController().attach(server)

    def test_attach_requires_flat_cache(self):
        server = _stack()
        server.scheme = SimpleNamespace(cache=None)
        with pytest.raises(ConfigError):
            AdaptiveController().attach(server)

    def test_attach_to_a_per_table_cache_server_raises(self):
        hw = default_platform()
        dataset = uniform_tables_spec(
            num_tables=2, corpus_size=1_000, alpha=-1.2, dim=8,
        )
        layer = PerTableCacheLayer(
            EmbeddingStore(dataset.table_specs(), hw), PerTableConfig(), hw,
        )
        with pytest.raises(ConfigError, match="FlatCache"):
            PipelinedInferenceServer(
                dataset, layer, hw,
                collector=WindowedCollector(window=1e-3, sla_budget=1e-3),
                autotuner=AdaptiveController(),
            )


class TestDisabled:
    def test_disabled_controller_is_inert(self):
        # A controller no server attached has nothing to read or tune:
        # the serving loop's poll returns at once.
        server = _stack()
        controller = AdaptiveController()
        assert controller._cache is None
        controller.on_batch_complete(1.0)
        assert not server.obs.has_prefix("autotune.")
        assert controller.history == []

    def test_enabled_controller_latches_gauge_on_attach(self):
        server = _stack()
        AdaptiveController().attach(server)
        assert server.obs.has_prefix("autotune.")
        assert server.obs.gauge("autotune.admission_probability") == 1.0


class TestBoostCycle:
    def test_drift_flag_enters_boost_and_expiry_reverts(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        cache = server.scheme.cache
        _prime(controller)
        drift = _healthy(4)
        drift.values["drift_flag"] = 1.0
        controller._on_window(drift)
        assert controller._boost_remaining == ctl.BOOST_WINDOWS
        assert cache.admission.probability == 1.0
        assert cache.admission.hot_min_count == ctl.BOOST_THRESHOLDS[0]
        reasons = {r.action.reason for r in controller.history}
        assert "drift-boost" in reasons
        # Boost counts down on clean windows, then reverts to cruise.
        _feed(controller, [_healthy(5 + i) for i in range(ctl.BOOST_WINDOWS)])
        assert controller._boost_remaining == 0
        assert cache.admission.probability == 0.5
        assert any(
            r.action.reason == "boost-expired" for r in controller.history
        )

    def test_re_flagged_drift_re_arms_boost(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        _prime(controller)
        drift = _healthy(4)
        drift.values["drift_flag"] = 1.0
        controller._on_window(drift)
        controller._on_window(_healthy(5))
        assert controller._boost_remaining == ctl.BOOST_WINDOWS - 1
        again = _healthy(6)
        again.values["drift_flag"] = 1.0
        controller._on_window(again)
        assert controller._boost_remaining == ctl.BOOST_WINDOWS

    def test_hit_collapse_triggers_boost(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller, count=5)   # EMA settles near 0.9
        assert controller._boost_remaining == 0
        controller._on_window(_healthy(5, hit_rate=0.4))
        assert controller._boost_remaining > 0

    def test_warmup_windows_excluded_from_ema(self):
        server = _stack()
        controller = AdaptiveController()
        controller.attach(server)
        # Cold-start windows with terrible hit rates must not poison the
        # baseline: after warmup the EMA reflects only healthy windows.
        _feed(controller, [_healthy(i, hit_rate=0.0) for i in range(3)])
        assert controller._hit_ema is None
        _feed(controller, [_healthy(3 + i) for i in range(2)])
        assert controller._hit_ema == pytest.approx(0.9)


class TestActionPipeline:
    def test_cooldown_suppresses_repeat_kind(self):
        server = _stack()
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller)
        bad = _healthy(4)
        bad.values["sla_attainment"] = 0.5
        controller._on_window(bad)
        assert server.scheme.cache.admission.probability == \
            pytest.approx(0.75)
        bad2 = _healthy(5)
        bad2.values["sla_attainment"] = 0.5
        controller._on_window(bad2)
        last = controller.history[-1]
        assert last.outcome == SUPPRESSED
        assert last.detail == "cooldown"
        assert server.scheme.cache.admission.probability == \
            pytest.approx(0.75)

    def test_hysteresis_suppresses_small_delta(self, monkeypatch):
        monkeypatch.setattr(ctl, "ADMISSION_STEP", 0.02)
        monkeypatch.setattr(ctl, "HYSTERESIS", 0.05)
        server = _stack()
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller)
        bad = _healthy(4)
        bad.values["sla_attainment"] = 0.5
        controller._on_window(bad)
        last = controller.history[-1]
        assert last.outcome == SUPPRESSED
        assert last.detail == "hysteresis"
        assert server.scheme.cache.admission.probability == 1.0

    def test_clamp_resolves_as_clamped(self, monkeypatch):
        monkeypatch.setattr(ctl, "HYSTERESIS", 0.01)
        monkeypatch.setattr(ctl, "MIN_ADMISSION", 0.1)
        server = _stack(admission=0.12)
        controller = AdaptiveController()
        controller.attach(server)
        _prime(controller)
        bad = _healthy(4)
        bad.values["sla_attainment"] = 0.5
        controller._on_window(bad)
        last = controller.history[-1]
        assert last.action.kind == SET_ADMISSION
        assert last.outcome == CLAMPED
        assert last.executed == pytest.approx(0.1)
        assert server.scheme.cache.admission.probability == \
            pytest.approx(0.1)

    def test_recovery_steps_admission_back_up(self, monkeypatch):
        monkeypatch.setattr(ctl, "COOLDOWN_WINDOWS", 0)
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller)
        _feed(controller, [_healthy(4 + i) for i in range(6)])
        assert server.scheme.cache.admission.probability == \
            pytest.approx(1.0)
        outcomes = {
            r.action.reason for r in controller.history
            if r.outcome in (APPLIED, CLAMPED)
        }
        assert "recover" in outcomes


class TestAccounting:
    def test_conservation_law_holds(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller)
        for i in range(4, 16):
            win = _healthy(i)
            if i % 4 == 0:
                win.values["drift_flag"] = 1.0
            if i % 5 == 0:
                win.values["sla_attainment"] = 0.5
            controller._on_window(win)
        registry = server.obs
        proposed = registry.total("autotune.proposed")
        assert proposed > 0
        assert proposed == (
            registry.total("autotune.applied")
            + registry.total("autotune.suppressed")
            + registry.total("autotune.clamped")
        )
        registry.check()   # the declared autotune law must audit clean

    def test_every_history_record_has_one_outcome(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller)
        drift = _healthy(4)
        drift.values["drift_flag"] = 1.0
        controller._on_window(drift)
        assert controller.history
        for record in controller.history:
            assert record.outcome in (APPLIED, SUPPRESSED, CLAMPED)

    def test_actions_land_as_trace_spans(self):
        server = _stack(admission=0.5)
        server.tracer = SpanTracer()
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller)
        drift = _healthy(4)
        drift.values["drift_flag"] = 1.0
        controller._on_window(drift)
        spans = [
            s for s in server.tracer.span_list() if s[0] == "autotune"
        ]
        assert spans
        assert any(SET_ADMISSION in name for _, name, *_ in spans)


class TestServingIntegration:
    def _serve(self, controller):
        hw = default_platform()
        dataset = uniform_tables_spec(
            num_tables=2, corpus_size=1_000, alpha=-1.2, dim=8,
        )
        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=0.05), hw,
        )
        collector = WindowedCollector(window=1e-3, sla_budget=1e-3)
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=2,
            policy=BatchingPolicy(max_batch_size=128, max_delay=2e-4),
            collector=collector,
            autotuner=controller,
        )
        requests = PoissonArrivals(dataset, 50_000.0, seed=3).generate(400)
        report = server.serve(requests)
        return report, server

    def test_idle_controller_is_byte_identical_to_absent(self):
        # On this light load the controller proposes nothing: attached,
        # it must leave hits, latencies and counters exactly as no
        # controller does.  Only its admission gauge appears.
        base, base_server = self._serve(None)
        controller = AdaptiveController()
        idle, idle_server = self._serve(controller)
        controller.on_batch_complete(idle.span)
        assert controller.history == []
        assert [float(x) for x in base.latencies] == \
            [float(x) for x in idle.latencies]
        assert base.hits == idle.hits and base.misses == idle.misses
        assert base_server.obs.counter_state() == \
            idle_server.obs.counter_state()
        assert not base_server.obs.has_prefix("autotune.")

    def test_enabled_run_consumes_windows_and_audits(self):
        controller = AdaptiveController()
        report, server = self._serve(controller)
        assert report.served == 400
        assert controller._cache is not None
        # The trailing flush closes one final partial window after the
        # last batch; a post-run poll catches the controller up.
        controller.on_batch_complete(report.span)
        assert controller._seen_windows == \
            server.collector.closed_windows
        server.obs.check()

    def test_collector_reset_reanchors_consumption(self):
        controller = AdaptiveController()
        _, server = self._serve(controller)
        seen = controller._seen_windows
        assert seen > 0
        # A fresh run restarts the simulated clock: the collector
        # re-anchors and the controller must follow instead of going
        # dead (closed_windows < _seen_windows forever).
        server.collector.reset(0.0)
        assert server.collector.closed_windows == 0
        server.collector.observe_batch(5e-3, [1e-4])
        server.collector.flush(6e-3)
        controller.on_batch_complete(6e-3)
        assert controller._seen_windows == \
            server.collector.closed_windows

    def test_zero_autotune_metrics_when_off_mid_catalogue(self):
        # The registry law is declared unconditionally; with no
        # controller the law's terms must not exist even as zero keys.
        _, server = self._serve(None)
        names = {name for (name, _), _ in server.obs.counter_state().items()}
        assert not any(n.startswith("autotune.") for n in names)
