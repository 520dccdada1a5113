"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["hitrate"])
        assert args.dataset == "avazu"
        assert args.ratio == 0.05

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hitrate", "--dataset", "movielens"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for command in ("hitrate", "throughput", "fusion", "coding", "trace"):
            assert command in out

    def test_hitrate_prints_three_schemes(self, capsys):
        rc = main([
            "hitrate", "--dataset", "avazu", "--batches", "6",
            "--batch", "128", "--scale", "0.02",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Optimal" in out and "HugeCTR" in out and "Fleche" in out

    def test_throughput_reports_speedup(self, capsys):
        rc = main([
            "throughput", "--dataset", "avazu", "--batches", "6",
            "--batch", "128", "--scale", "0.02",
        ])
        assert rc == 0
        assert "speedup" in capsys.readouterr().out

    def test_fusion_table(self, capsys):
        rc = main(["fusion", "--tables", "8", "--keys", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HugeCTR" in out and "Fleche" in out

    def test_coding(self, capsys):
        rc = main(["coding", "--bits", "12"])
        assert rc == 0
        assert "upper bound" in capsys.readouterr().out

    def test_trace_exports_valid_json(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        rc = main([
            "trace", "--out", str(out_path), "--scale", "0.02",
            "--batch", "64",
        ])
        assert rc == 0
        with open(out_path) as f:
            trace = json.load(f)
        assert trace["traceEvents"]

    def test_serve_prints_summary_and_emits(self, tmp_path, monkeypatch,
                                            capsys):
        from repro.bench import reporting

        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        rc = main([
            "serve", "--requests", "400", "--corpus", "4000",
            "--tables", "4", "--rate", "200000", "--emit",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "windows" in out
        series = reporting.load_artifact(
            str(tmp_path / "series.json"), kind="series",
        )
        assert series["closed_windows"] > 0
        reporting.load_artifact(str(tmp_path / "alerts.json"), kind="alerts")

    def test_serve_metrics_endpoint_scrapes(self, capsys):
        import re

        rc = main([
            "serve", "--requests", "200", "--corpus", "2000",
            "--tables", "4", "--rate", "200000",
            "--metrics-port", "0", "--hold", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        match = re.search(r"http://127\.0\.0\.1:\d+/metrics", out)
        assert match, out
        # The server is closed after --hold; the URL format is the check.

    def test_refresh_replay_converges(self, capsys):
        rc = main([
            "refresh", "replay", "--rounds", "4", "--corpus", "2000",
            "--tables", "2", "--keys-per-round", "32",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "yes" in out

    def test_refresh_status_reports_lag(self, capsys):
        rc = main([
            "refresh", "status", "--rounds", "4", "--corpus", "2000",
            "--tables", "2", "--keys-per-round", "32",
            "--applied-rounds", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "log.latest_version" in out
        assert "replica.version_lag" in out

    def test_refresh_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["refresh"])

    def test_cluster_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("serve", "drill", "status"):
            assert command in out

    def test_cluster_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_cluster_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "serve", "--policy", "round-robin"]
            )

    def test_cluster_serve_prints_per_replica(self, capsys):
        rc = main([
            "cluster", "serve", "--replicas", "2", "--corpus", "2000",
            "--tables", "2", "--dim", "8", "--rate", "50000",
            "--horizon", "0.015", "--rounds", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLA attainment" in out
        assert "replica 0 dispatched" in out
        assert "replica 1 dispatched" in out

    def test_cluster_serve_least_outstanding(self, capsys):
        rc = main([
            "cluster", "serve", "--replicas", "3", "--corpus", "2000",
            "--tables", "2", "--dim", "8", "--rate", "50000",
            "--horizon", "0.015", "--rounds", "4",
            "--policy", "least-outstanding",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "least-outstanding routing" in out
        for r in range(3):
            assert f"replica {r} dispatched" in out

    def test_cluster_drill_beats_unrouted(self, capsys):
        rc = main([
            "cluster", "drill", "--replicas", "4", "--corpus", "2000",
            "--tables", "2", "--dim", "8", "--rate", "60000",
            "--horizon", "0.02", "--rounds", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "routed SLA" in out
        assert "failovers served" in out
        assert "time to detect" in out

    def test_cluster_status_walks_state_machine(self, capsys):
        rc = main([
            "cluster", "status", "--replicas", "3", "--corpus", "2000",
            "--tables", "2", "--dim", "8", "--rate", "50000",
            "--horizon", "0.02", "--rounds", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for state in ("healthy", "suspect", "dead", "recovering"):
            assert state in out

    def test_obs_render_round_trips(self, tmp_path, monkeypatch, capsys):
        from repro.bench import reporting
        from repro.obs import MetricsRegistry, parse_openmetrics

        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        registry = MetricsRegistry()
        registry.inc("cache.hits", 9)
        path = reporting.emit_json("metrics", registry.snapshot().to_dict())
        capsys.readouterr()
        rc = main(["obs", "render", "--metrics", path])
        assert rc == 0
        families = parse_openmetrics(capsys.readouterr().out)
        assert families["cache_hits"]["samples"] == [
            ("cache_hits_total", {}, 9.0)
        ]

    def test_obs_render_rejects_unversioned_artifact(self, tmp_path):
        bad = tmp_path / "metrics.json"
        bad.write_text('{"counters": {}}\n')
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["obs", "render", "--metrics", str(bad)])

    def test_obs_critical_path_analyzes_trace(self, tmp_path, monkeypatch,
                                              capsys):
        from repro import FlecheConfig, FlecheEmbeddingLayer
        from repro.bench import reporting
        from repro.obs import RequestTracer, TraceConfig
        from repro.serving.arrivals import PoissonArrivals
        from repro.serving.batcher import BatchingPolicy
        from repro.serving.pipeline import PipelinedInferenceServer
        from repro.tables.store import EmbeddingStore
        from repro.workloads.synthetic import uniform_tables_spec

        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        hw = __import__("repro").default_platform()
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=4_000, alpha=-1.2, dim=16,
        )
        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=0.1), hw
        )
        tracer = RequestTracer(TraceConfig(
            head_interval=16, sla_budget=1e-4,
        ))
        server = PipelinedInferenceServer(
            dataset, layer, hw,
            policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        )
        server.reqtracer = tracer
        server.serve(PoissonArrivals(
            dataset, 80_000.0, seed=9
        ).generate(300))
        path = reporting.emit_json("reqtrace", tracer.to_payload())
        capsys.readouterr()
        rc = main([
            "obs", "critical-path", "--trace", path, "--top", "5",
            "--emit",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sampled of 300 requests" in out
        assert "rootcause" in out
        with open(tmp_path / "critical_path.json") as f:
            analysis = json.load(f)
        assert analysis["requests"] == 300
        assert len(analysis["top"]) <= 5
        assert analysis["rootcause"]["causes"]

    def test_obs_critical_path_rejects_wrong_kind(self, tmp_path,
                                                  monkeypatch):
        from repro.bench import reporting
        from repro.errors import ConfigError

        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        path = reporting.emit_json("metrics", {"counters": {}})
        with pytest.raises(ConfigError):
            main(["obs", "critical-path", "--trace", path])
