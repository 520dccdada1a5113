"""Tests for the command-line interface."""

import json
import re

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
        args = build_parser().parse_args(["trace"])
        assert args.dataset == "avazu"
        assert args.scale == 0.2

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--dataset", "movielens"])

    @pytest.mark.parametrize("command", [
        "list", "run", "hitrate", "throughput", "fusion", "coding",
        "refresh", "cluster",
    ])
    def test_removed_command_is_a_usage_error(self, command):
        """The paper's figures, the refresh recovery check and the cluster
        drill run from their benchmarks, not from the CLI."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2


class TestCommands:
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

    # The per-figure, ``refresh`` and ``cluster`` commands are gone: the
    # benches run those studies.  The checks below keep each one end to
    # end, at the small scale the commands ran, through the library calls
    # the commands made.

    def test_hitrate_prints_three_schemes(self):
        from repro import Executor, default_platform, frequency_optimal_hit_rate
        from repro.bench.harness import make_context, scheme_factory
        from repro.core.cache_base import HitRateAccumulator

        context = make_context(
            "avazu", batch_size=128, num_batches=6, cache_ratio=0.05,
            scale=0.02, hw=default_platform(),
        )
        _, measure = context.trace.split(context.warmup)
        capacity = max(1, int(context.dataset.total_sparse_ids * 0.05))
        rates = {"Optimal": frequency_optimal_hit_rate(measure, capacity)}
        for name, label in (("hugectr", "HugeCTR"), ("fleche-noui", "Fleche")):
            layer = scheme_factory(name, context)()
            executor = Executor(context.hw)
            acc = HitRateAccumulator()
            batches = list(context.trace)
            for batch in batches[:context.warmup]:
                layer.query(batch, executor)
            for batch in batches[context.warmup:]:
                acc.record(layer.query(batch, executor))
            rates[label] = acc.hit_rate
        assert all(0.0 < rate <= 1.0 for rate in rates.values()), rates
        assert rates["Fleche"] > rates["HugeCTR"], rates

    def test_throughput_reports_speedup(self):
        from repro import default_platform
        from repro.bench.harness import make_context, run_scheme

        context = make_context(
            "avazu", batch_size=128, num_batches=6, cache_ratio=0.05,
            scale=0.02, hw=default_platform(),
        )
        hugectr = run_scheme(context, "hugectr", include_dense=False)
        fleche = run_scheme(context, "fleche", include_dense=False)
        assert hugectr.throughput > 0
        assert fleche.throughput / hugectr.throughput > 1.0

    def test_fusion_table(self):
        from repro import (
            Executor, FlecheConfig, FlecheEmbeddingLayer, PerTableCacheLayer,
            PerTableConfig, default_platform,
        )
        from repro.tables.store import EmbeddingStore
        from repro.workloads.synthetic import (
            synthetic_dataset, uniform_tables_spec,
        )

        hw = default_platform()
        latency = {}
        for n in (1, 2, 4, 8):
            spec = uniform_tables_spec(
                num_tables=n, corpus_size=max(1000, 250_000 // n), dim=32,
            )
            trace = list(synthetic_dataset(
                spec, num_batches=6, batch_size=2000 // n,
            ))
            store = EmbeddingStore(spec.table_specs(), hw)
            layers = {
                "HugeCTR": PerTableCacheLayer(
                    store, PerTableConfig(cache_ratio=0.1), hw
                ),
                "Fleche": FlecheEmbeddingLayer(
                    store,
                    FlecheConfig(cache_ratio=0.1, use_unified_index=False),
                    hw,
                ),
            }
            for label, layer in layers.items():
                executor = Executor(hw)
                for batch in trace[:3]:
                    layer.query(batch, executor)
                executor.reset()
                for batch in trace[3:]:
                    layer.query(batch, executor)
                executor.drain()
                stats = executor.stats
                latency[label, n] = (
                    stats.maintenance_time + stats.cache_query_time
                ) / 3
        assert all(t > 0 for t in latency.values()), latency
        assert latency["Fleche", 8] < latency["HugeCTR", 8], latency

    def test_coding(self):
        from repro.coding.fixed_length import FixedLengthCodec
        from repro.coding.size_aware import SizeAwareCodec
        from repro.model.trainer import CollisionAucStudy, SyntheticCtrTask

        corpora = [64, 512, 4096]
        task = SyntheticCtrTask(
            corpus_sizes=corpora, num_train=12_000, num_test=3_000,
            alpha=-0.8, seed=5,
        )
        study = CollisionAucStudy(task, epochs=4)
        fixed = study.auc_with_codec(
            FixedLengthCodec(corpora, key_bits=12, table_bits=2)
        )
        size_aware = study.auc_with_codec(
            SizeAwareCodec(corpora, key_bits=12)
        )
        upper = study.upper_bound_auc()
        assert 0.5 < fixed <= upper <= 1.0
        assert 0.5 < size_aware <= upper

    def test_refresh_replay_converges(self):
        from repro.refresh import UpdateSubscriber, fingerprint

        build_replica, log, horizon = _refresh_stream(rounds=4)
        steady = build_replica()
        UpdateSubscriber(log, steady.cache).catch_up(horizon)

        doomed = build_replica()
        sub = UpdateSubscriber(log, doomed.cache)
        sub.catch_up(2.5)  # killed after two of four versions
        snap = sub.snapshot()
        assert snap.model_version == 2

        cold = build_replica(warm=False)
        restored = UpdateSubscriber.from_snapshot(snap, cold.cache, log)
        assert restored.catch_up(horizon) > 0
        assert restored.applied_version == 4
        assert fingerprint(cold.cache) == fingerprint(steady.cache)

    def test_refresh_status_reports_lag(self):
        from repro.obs import MetricsRegistry
        from repro.refresh import UpdateSubscriber

        build_replica, log, horizon = _refresh_stream(rounds=4)
        registry = MetricsRegistry()
        subscriber = UpdateSubscriber(log, build_replica().cache)
        subscriber.bind_observability(registry)
        subscriber.catch_up(1.5)  # one of four versions applied
        subscriber.refresh_gauges(horizon)
        assert log.latest_version(horizon) == 4
        assert registry.gauge("refresh.applied_version") == 1.0
        assert registry.gauge("refresh.version_lag") == 3.0
        assert registry.gauge("refresh.pending_keys") > 0

    def test_cluster_help_exits_zero(self, capsys):
        import runpy
        from pathlib import Path

        bench = Path(__file__).resolve().parents[1] / "benchmarks"
        bench_cluster = runpy.run_path(str(bench / "bench_cluster.py"))
        with pytest.raises(SystemExit) as exc:
            bench_cluster["main"](["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--smoke" in out and "drill" in out

    def test_cluster_requires_subcommand(self):
        """The old ``cluster`` subcommands are usage errors too."""
        for command in ("serve", "drill", "status"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["cluster", command])
            assert exc.value.code == 2

    def test_cluster_policy_choices_enforced(self):
        from repro.cluster import POLICY_NAMES, ClusterConfig, ClusterRouter
        from repro.errors import ConfigError

        dataset = _cluster_stream(replicas=2)[0]
        with pytest.raises(ConfigError):
            ClusterRouter(
                dataset, __import__("repro").default_platform(),
                config=ClusterConfig(num_replicas=2, policy="round-robin"),
            )
        assert "round-robin" not in POLICY_NAMES

    def test_cluster_serve_prints_per_replica(self):
        report, requests = _cluster_serve(replicas=2)
        assert report.served + report.shed == len(requests)
        assert 0.0 < report.sla_attainment(2e-3) <= 1.0
        assert sorted(report.per_replica) == [0, 1]
        for summary in report.per_replica.values():
            assert summary["dispatched"] > 0

    def test_cluster_serve_least_outstanding(self):
        report, requests = _cluster_serve(
            replicas=3, policy="least-outstanding",
        )
        assert report.served + report.shed == len(requests)
        assert sorted(report.per_replica) == [0, 1, 2]
        for summary in report.per_replica.values():
            assert summary["dispatched"] > 0

    def test_cluster_drill_beats_unrouted(self):
        import dataclasses

        from repro.bench.harness import alert_timing
        from repro.cluster import ClusterRouter, hot_head_victim
        from repro.faults import FaultSchedule, ReplicaCrash

        horizon = 0.02
        dataset, hw, log, config, requests = _cluster_stream(
            replicas=4, rate=60_000.0, horizon=horizon,
        )
        start, duration = 0.3 * horizon, 0.4 * horizon
        schedule = FaultSchedule([ReplicaCrash(
            replica=hot_head_victim(dataset, 5, 4),
            start=start, duration=duration,
        )])
        routed = ClusterRouter(
            dataset, hw, config=config, schedule=schedule, update_log=log,
        ).serve(requests)
        unrouted = ClusterRouter(
            dataset, hw, config=dataclasses.replace(config, failover=False),
            schedule=schedule, update_log=log,
        ).serve(requests)
        timing = alert_timing(routed.alerts, start, start + duration)
        assert routed.shed == 0
        assert unrouted.shed > 0
        assert routed.sla_attainment(2e-3) > unrouted.sla_attainment(2e-3)
        assert routed.disposition_counts()["failover"] > 0
        assert timing["ttd_s"] is not None
        assert timing["early_alerts"] == 0

    def test_cluster_status_walks_state_machine(self):
        from repro.cluster import ClusterRouter, hot_head_victim
        from repro.cluster.health import HEARTBEAT_INTERVAL
        from repro.faults import FaultSchedule, ReplicaCrash

        horizon = 0.02
        dataset, hw, log, config, _ = _cluster_stream(
            replicas=3, horizon=horizon,
        )
        victim = hot_head_victim(dataset, 5, 3)
        schedule = FaultSchedule([ReplicaCrash(
            replica=victim, start=0.3 * horizon, duration=0.4 * horizon,
        )])
        router = ClusterRouter(
            dataset, hw, config=config, schedule=schedule, update_log=log,
        )
        timelines = router.monitor.observe(horizon + 16 * HEARTBEAT_INTERVAL)
        states = [t.state for t in timelines[victim].transitions]
        assert states[:1] == ["healthy"] and states[-1] == "healthy"
        for state in ("suspect", "dead", "recovering"):
            assert state in states


def _refresh_stream(rounds, tables=2, corpus=2000, dim=8, keys_per_round=32):
    """A deterministic update stream over warm Fleche replicas.

    Round ``i`` is published at simulated time ``i + 1``.  Returns
    ``(build_replica, log, horizon)``; ``build_replica(warm=True)`` warms
    the cache on a synthetic trace so it holds keys the trainer churns.
    """
    from repro import (
        Executor, FlecheConfig, FlecheEmbeddingLayer, default_platform,
    )
    from repro.model.trainer import EmbeddingDeltaTrainer
    from repro.refresh import UpdateLog, UpdatePublisher
    from repro.tables.store import EmbeddingStore
    from repro.workloads.synthetic import synthetic_dataset, uniform_tables_spec

    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=tables, corpus_size=corpus, alpha=-1.2, dim=dim,
    )
    specs = dataset.table_specs()

    def build_replica(warm=True):
        layer = FlecheEmbeddingLayer(
            EmbeddingStore(specs, hw), FlecheConfig(cache_ratio=0.05), hw
        )
        if warm:
            executor = Executor(hw)
            for batch in synthetic_dataset(
                dataset, num_batches=6, batch_size=256
            ):
                layer.query(batch, executor)
        return layer

    log = UpdateLog(retention=1024)
    publisher = UpdatePublisher(log, max_batch_keys=256)
    trainer = EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in specs], [spec.dim for spec in specs],
        keys_per_round=keys_per_round, seed=9,
    )
    for i in range(rounds):
        publisher.drain(trainer, now=float(i + 1))
    return build_replica, log, float(rounds + 1)


def _cluster_stream(replicas, policy="hash", rate=50_000.0, horizon=0.015,
                    rounds=4):
    """Dataset, update log, config and Poisson traffic for a small cluster.

    The trainer's rounds are published evenly across the horizon so every
    replica has a refresh stream to follow.
    """
    from repro import default_platform
    from repro.cluster import ClusterConfig
    from repro.model.trainer import EmbeddingDeltaTrainer
    from repro.refresh import UpdateLog, UpdatePublisher
    from repro.serving.arrivals import PoissonArrivals
    from repro.workloads.synthetic import uniform_tables_spec

    dataset = uniform_tables_spec(
        num_tables=2, corpus_size=2000, alpha=-1.2, dim=8,
    )
    specs = dataset.table_specs()
    log = UpdateLog(retention=1_000_000)
    publisher = UpdatePublisher(log, max_batch_keys=256)
    trainer = EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in specs], [spec.dim for spec in specs],
        keys_per_round=64, seed=11,
    )
    for i in range(rounds):
        publisher.drain(trainer, now=horizon * (i + 1) / (rounds + 1))
    config = ClusterConfig(num_replicas=replicas, policy=policy, hot_keys=128)
    requests = PoissonArrivals(dataset, rate, seed=5).generate_until(horizon)
    return dataset, default_platform(), log, config, requests


def _cluster_serve(replicas, policy="hash"):
    from repro.cluster import ClusterRouter

    dataset, hw, log, config, requests = _cluster_stream(replicas, policy)
    router = ClusterRouter(dataset, hw, config=config, update_log=log)
    return router.serve(requests), requests


class TestScenarioRun:
    """``repro scenario run`` serves one quantizing cache with and
    without ``--autotune``, so its two tables differ only by the
    controller."""

    SMALL = ["scenario", "run", "--tables", "3", "--corpus", "2000"]

    def _row(self, capsys, *flags):
        """The run's table row, by column name."""
        assert main([*self.SMALL, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Columns are two or more spaces apart ("239.09 K/s" is one cell).
        header, row = (re.split(r"\s{2,}", lines[i].strip()) for i in (1, 3))
        assert header[-1] == "boosts"
        return dict(zip(header, row))

    def test_a_run_without_a_boost_matches_the_run_without_controller(
        self, capsys,
    ):
        off = self._row(capsys, "--name", "diurnal")
        on = self._row(capsys, "--name", "diurnal", "--autotune")
        assert off.pop("boosts") == "-"
        assert on.pop("boosts") == "0"
        assert on == off

    def test_autotune_reports_its_boosts(self, capsys):
        off = self._row(capsys, "--name", "flash_crowd")
        on = self._row(capsys, "--name", "flash_crowd", "--autotune")
        assert off["boosts"] == "-"
        assert int(on["boosts"]) >= 1
        assert on["requests"] == off["requests"]

    def test_autotune_from_half_admission(self, capsys):
        full = self._row(capsys, "--name", "flash_crowd", "--autotune")
        half = self._row(
            capsys, "--name", "flash_crowd", "--autotune",
            "--admission", "0.5",
        )
        assert int(half["boosts"]) >= 1
        assert half["requests"] == full["requests"]
        # The boost restores 0.5 when it expires: the run is not the
        # admission-1.0 run.
        assert half["P50"] != full["P50"]
