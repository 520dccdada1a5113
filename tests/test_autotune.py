"""Tests for the closed-loop adaptive controller (the drift boost).

Covers the boost's enter / re-arm / restore cycle, the hit-collapse
detector, the ``autotune.boosts`` counter and its series, trace spans,
and the byte-identity contract of a controller that opens no boost.
The controller's tunables are module constants; tests monkeypatch them.
"""

from types import SimpleNamespace

import pytest

from repro import FlecheConfig, default_platform
from repro.autotune import AdaptiveController
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


def _drift(index):
    win = _healthy(index)
    win.values["drift_flag"] = 1.0
    return win


def _prime(controller, ema=0.9, windows=5):
    """Skip past warmup without feeding windows."""
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
        assert controller._boost_remaining == 0

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
        found = (cache.admission.hot_min_count, cache.admission.warm_min_count)
        assert found != ctl.BOOST_THRESHOLDS
        _prime(controller)
        controller._on_window(_drift(4))
        assert controller._boost_remaining == ctl.BOOST_WINDOWS
        assert cache.admission.probability == ctl.BOOST_ADMISSION
        assert (cache.admission.hot_min_count,
                cache.admission.warm_min_count) == ctl.BOOST_THRESHOLDS
        assert server.obs.gauge("autotune.admission_probability") == \
            ctl.BOOST_ADMISSION
        # Boost counts down on clean windows, then restores what it found.
        _feed(controller, [_healthy(5 + i) for i in range(ctl.BOOST_WINDOWS)])
        assert controller._boost_remaining == 0
        assert cache.admission.probability == 0.5
        assert (cache.admission.hot_min_count,
                cache.admission.warm_min_count) == found
        assert server.obs.gauge("autotune.admission_probability") == 0.5

    def test_re_flagged_drift_re_arms_boost(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        cache = server.scheme.cache
        _prime(controller)
        controller._on_window(_drift(4))
        controller._on_window(_healthy(5))
        assert controller._boost_remaining == ctl.BOOST_WINDOWS - 1
        controller._on_window(_drift(6))
        assert controller._boost_remaining == ctl.BOOST_WINDOWS
        # A re-arm extends the open boost: no second entry, and the
        # boost still ends BOOST_WINDOWS clean windows after it.
        assert server.obs.total("autotune.boosts") == 1
        _feed(
            controller, [_healthy(7 + i) for i in range(ctl.BOOST_WINDOWS - 1)]
        )
        assert cache.admission.probability == ctl.BOOST_ADMISSION
        controller._on_window(_healthy(6 + ctl.BOOST_WINDOWS))
        assert cache.admission.probability == 0.5
        assert server.obs.total("autotune.boosts") == 1

    def test_one_tier_cache_boosts_admission_only(self):
        server = _stack(quantizing=False, admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        cache = server.scheme.cache
        _prime(controller)
        controller._on_window(_drift(4))
        assert cache.admission.probability == ctl.BOOST_ADMISSION
        _feed(controller, [_healthy(5 + i) for i in range(ctl.BOOST_WINDOWS)])
        assert cache.admission.probability == 0.5

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


class TestAccounting:
    def test_boosts_count_entries(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        _prime(controller)
        assert server.obs.total("autotune.boosts") == 0
        index = 4
        for _ in range(2):
            controller._on_window(_drift(index))
            _feed(controller, [
                _healthy(index + 1 + i) for i in range(ctl.BOOST_WINDOWS)
            ])
            index += 1 + ctl.BOOST_WINDOWS
        assert controller._boost_remaining == 0
        assert server.obs.total("autotune.boosts") == 2
        server.obs.check()

    def test_boosts_land_in_the_window_series(self):
        server = _stack(admission=0.5)
        controller = AdaptiveController()
        controller.attach(server)
        collector = server.collector
        controller._on_window(_drift(0))
        collector.observe_batch(0.5e-3, [1e-4])
        collector.flush(1.5e-3)
        values = collector.windows[0].values
        assert values["autotune_boosts"] == 1.0
        assert values["autotune_admission_probability"] == \
            ctl.BOOST_ADMISSION

    def test_actions_land_as_trace_spans(self):
        server = _stack(admission=0.5)
        server.tracer = SpanTracer()
        controller = AdaptiveController()
        controller.attach(server)
        _warmup(controller)
        controller._on_window(_drift(4))
        controller._on_window(_drift(5))   # a re-arm records nothing
        spans = [
            s for s in server.tracer.span_list() if s[0] == "autotune"
        ]
        assert [name for _, name, *_ in spans] == ["drift-boost"]


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
        # On this light load the controller opens no boost: attached,
        # it must leave hits, latencies and counters exactly as no
        # controller does.  Only its admission gauge appears.
        base, base_server = self._serve(None)
        controller = AdaptiveController()
        idle, idle_server = self._serve(controller)
        controller.on_batch_complete(idle.span)
        assert idle_server.obs.total("autotune.boosts") == 0
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
