"""Tests for OpenMetrics rendering, parsing, and the metrics HTTP server."""

import copy
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigError
from repro.obs import (
    BurnRateRule,
    MetricsHttpServer,
    MetricsRegistry,
    Slo,
    SloEngine,
    WindowedCollector,
    parse_openmetrics,
    render_openmetrics,
)
from repro.core.config import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.obs.exposition import metric_name, snapshot_from_payload
from repro.obs.timeseries import WindowRecord
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from conftest import HandRun
from repro.workloads.synthetic import uniform_tables_spec


def _registry():
    registry = MetricsRegistry()
    registry.inc("cache.hits", 42)
    registry.inc("cache.table_hits", 7, table="0")
    registry.inc("cache.table_hits", 3, table="1")
    registry.set_gauge("cache.fill", 0.75)
    registry.declare_buckets("serving.latency", (1e-3, 1e-2))
    registry.observe("serving.latency", 5e-4)
    registry.observe("serving.latency", 5e-3)
    registry.observe("serving.latency", 5e-2)
    return registry


class TestRendering:
    def test_name_sanitisation(self):
        assert metric_name("cache.hits") == "cache_hits"
        assert metric_name("0weird") == "_0weird"
        assert metric_name("a-b c") == "a_b_c"

    def test_families_and_suffixes(self):
        text = render_openmetrics(_registry().snapshot())
        assert "# TYPE cache_hits counter\n" in text
        assert "cache_hits_total 42\n" in text
        assert 'cache_table_hits_total{table="0"} 7\n' in text
        assert "# TYPE cache_fill gauge\n" in text
        assert "cache_fill 0.75\n" in text
        assert text.endswith("# EOF\n")

    def test_histogram_rendering(self):
        text = render_openmetrics(_registry().snapshot())
        assert 'serving_latency_bucket{le="0.001"} 1\n' in text
        assert 'serving_latency_bucket{le="0.01"} 2\n' in text
        assert 'serving_latency_bucket{le="+Inf"} 3\n' in text
        assert "serving_latency_count 3\n" in text

    def test_engine_and_collector_extras(self):
        engine = SloEngine(
            [Slo("latency", objective=0.99)],
            [BurnRateRule("fast", "latency")],
        )
        engine.evaluate([WindowRecord(
            0, 0.0, 1e-3, values={"sla_bad": 50.0, "requests": 100.0},
        )])
        collector = WindowedCollector()
        run = HandRun(collector)
        run.batch(1.5e-3)
        run.close(2e-3)
        text = render_openmetrics(
            _registry().snapshot(), engine=engine, collector=collector,
        )
        assert 'slo_alert_firing{rule="fast",slo="latency"} 1\n' in text
        assert "obs_windows_closed 2\n" in text
        parse_openmetrics(text)  # extras stay grammar-valid

    def test_render_parse_round_trip(self):
        registry = _registry()
        text = render_openmetrics(registry.snapshot())
        families = parse_openmetrics(text)
        assert families["cache_hits"]["type"] == "counter"
        assert families["cache_hits"]["samples"] == [
            ("cache_hits_total", {}, 42.0)
        ]
        table_samples = families["cache_table_hits"]["samples"]
        assert ("cache_table_hits_total", {"table": "0"}, 7.0) in table_samples
        buckets = [
            s for s in families["serving_latency"]["samples"]
            if s[0] == "serving_latency_bucket"
        ]
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == 3.0


class TestParserStrictness:
    def test_rejects_missing_terminator(self):
        with pytest.raises(ConfigError):
            parse_openmetrics("# TYPE a counter\na_total 1\n")
        with pytest.raises(ConfigError):
            parse_openmetrics("# TYPE a counter\na_total 1\n# EOF")

    def test_rejects_blank_lines_and_bad_comments(self):
        with pytest.raises(ConfigError):
            parse_openmetrics("# TYPE a counter\n\na_total 1\n# EOF\n")
        with pytest.raises(ConfigError):
            parse_openmetrics("# FROB a counter\na_total 1\n# EOF\n")

    def test_rejects_sample_before_type(self):
        with pytest.raises(ConfigError):
            parse_openmetrics("a_total 1\n# EOF\n")

    def test_rejects_foreign_sample_name(self):
        with pytest.raises(ConfigError):
            parse_openmetrics("# TYPE a counter\nb_total 1\n# EOF\n")
        # A counter sample must carry the _total suffix.
        with pytest.raises(ConfigError):
            parse_openmetrics("# TYPE a counter\na 1\n# EOF\n")

    def test_rejects_duplicate_family(self):
        with pytest.raises(ConfigError):
            parse_openmetrics(
                "# TYPE a counter\n# TYPE a counter\n# EOF\n"
            )

    def test_rejects_bad_value(self):
        with pytest.raises(ConfigError):
            parse_openmetrics("# TYPE a counter\na_total pizza\n# EOF\n")


class TestPayloadRoundTrip:
    def test_snapshot_from_payload_rerenders_identically(self):
        registry = _registry()
        snapshot = registry.snapshot()
        payload = json.loads(json.dumps(snapshot.to_dict()))
        rebuilt = snapshot_from_payload(payload)
        assert render_openmetrics(rebuilt) == render_openmetrics(snapshot)

    def test_handles_bucketless_histograms(self):
        registry = MetricsRegistry()
        registry.observe("plain.hist", 2.0)
        payload = json.loads(json.dumps(registry.snapshot().to_dict()))
        rebuilt = snapshot_from_payload(payload)
        text = render_openmetrics(rebuilt)
        assert 'plain_hist_bucket{le="+Inf"} 1\n' in text


class TestHttpServer:
    @pytest.fixture()
    def served(self):
        registry = _registry()
        collector = WindowedCollector(sla_budget=2e-3)
        run = HandRun(collector, registry)
        run.batch(0.5e-3, [0.5e-3])
        run.close(1e-3)
        engine = SloEngine([Slo("latency", objective=0.99)], [])
        with MetricsHttpServer(
            registry, collector=collector, engine=engine,
        ) as server:
            yield server

    @staticmethod
    def _get(server, path):
        with urllib.request.urlopen(server.url(path), timeout=5) as response:
            return response.status, response.read().decode("utf-8")

    def test_metrics_endpoint_is_valid_openmetrics(self, served):
        status, body = self._get(served, "/metrics")
        assert status == 200
        families = parse_openmetrics(body)
        assert "cache_hits" in families
        assert "obs_windows_closed" in families

    def test_healthz(self, served):
        status, body = self._get(served, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["windows"] == served.collector.closed_windows

    def test_series(self, served):
        status, body = self._get(served, "/series")
        assert status == 200
        payload = json.loads(body)
        assert payload["kind"] == "series"
        assert payload["windows"]
        assert payload["alerts"]["kind"] == "alerts"

    def test_unknown_path_is_404(self, served):
        try:
            self._get(served, "/nope")
        except urllib.error.HTTPError as err:
            assert err.code == 404
        else:  # pragma: no cover
            pytest.fail("expected a 404")

    def test_double_start_rejected(self, served):
        with pytest.raises(ConfigError):
            served.start()

    def test_series_without_collector_is_404(self):
        with MetricsHttpServer(_registry()) as server:
            try:
                self._get(server, "/series")
            except urllib.error.HTTPError as err:
                assert err.code == 404
            else:  # pragma: no cover
                pytest.fail("expected a 404")


def test_scrapes_during_a_served_run_change_no_counter(hw):
    """A scrape only reads the registry: scraping ``/metrics`` in a loop
    while a pipelined server serves leaves the audit passing and every
    counter equal to an unscraped run's."""
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    server = PipelinedInferenceServer(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        include_dense=False, depth=2,
    )
    twin = copy.deepcopy(server, {id(hw): hw})
    requests = PoissonArrivals(dataset, 2_000_000.0, seed=2).generate(3_000)
    reference = twin.serve(requests)

    done = threading.Event()
    scrapes = []

    def scrape(http):
        while not done.is_set():
            with urllib.request.urlopen(http.url(), timeout=5) as response:
                scrapes.append(response.status)

    # Switch threads often, so scrapes land inside the serving loop's
    # registry updates.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with MetricsHttpServer(server.obs) as http:
            scraper = threading.Thread(target=scrape, args=(http,))
            scraper.start()
            try:
                report = server.serve(requests)  # audits before and after
            finally:
                done.set()
                scraper.join()
    finally:
        sys.setswitchinterval(interval)
    assert scrapes and set(scrapes) == {200}
    assert report.metrics.counters == reference.metrics.counters
    assert server.obs.snapshot().counters == twin.obs.snapshot().counters
