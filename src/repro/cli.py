"""Command-line interface: run experiments without pytest.

Usage::

    python -m repro list
    python -m repro hitrate --dataset avazu --ratio 0.05
    python -m repro throughput --dataset criteo-kaggle --batch 2048
    python -m repro fusion --tables 60
    python -m repro coding --bits 10
    python -m repro trace --out batch.trace.json

Each subcommand runs a focused experiment on the simulated platform and
prints a paper-style table; ``trace`` additionally exports a Chrome-trace
JSON of one batch's timeline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import (
    Executor,
    FlecheConfig,
    FlecheEmbeddingLayer,
    PerTableCacheLayer,
    PerTableConfig,
    default_platform,
    frequency_optimal_hit_rate,
)
from .bench.harness import make_context, run_scheme
from .bench.reporting import format_rate, format_table, format_time
from .core.cache_base import HitRateAccumulator


def _cmd_list(_args) -> int:
    rows = [
        ["hitrate", "Optimal / HugeCTR / Fleche hit rates (Figs 3, 12)"],
        ["throughput", "embedding throughput HugeCTR vs Fleche (Fig 9)"],
        ["fusion", "cache-query latency vs table count (Figs 4, 14)"],
        ["coding", "AUC of fixed-length vs size-aware coding (Fig 13)"],
        ["trace", "export one batch's simulated timeline (Chrome trace)"],
        ["run", "run a registered paper experiment via pytest-benchmark"],
    ]
    print(format_table(["command", "what it runs"], rows,
                       title="repro quick experiments"))
    from .bench.experiments import all_experiments

    print()
    print(format_table(
        ["id", "paper ref", "regenerates"],
        [[e.experiment_id, e.paper_ref, e.description]
         for e in all_experiments()],
        title="registered experiments (use: python -m repro run <id>)",
    ))
    return 0


def _cmd_run(args) -> int:
    import subprocess

    from .bench.experiments import registry

    entries = registry()
    entry = entries.get(args.experiment)
    if entry is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {', '.join(sorted(entries))}")
        return 2
    command = [
        sys.executable, "-m", "pytest", entry.bench_file,
        "--benchmark-only", "-q",
    ]
    print(f"running {entry.paper_ref}: {entry.description}")
    return subprocess.call(command)


def _cmd_hitrate(args) -> int:
    hw = default_platform()
    context = make_context(
        args.dataset, batch_size=args.batch, num_batches=args.batches,
        cache_ratio=args.ratio, scale=args.scale, hw=hw,
    )
    rows = []
    _, measure = context.trace.split(context.warmup)
    capacity = max(1, int(context.dataset.total_sparse_ids * args.ratio))
    rows.append(["Optimal",
                 f"{frequency_optimal_hit_rate(measure, capacity):.1%}"])
    for name in ("hugectr", "fleche-noui"):
        from .bench.harness import scheme_factory

        layer = scheme_factory(name, context)()
        executor = Executor(hw)
        acc = HitRateAccumulator()
        batches = list(context.trace)
        for batch in batches[:context.warmup]:
            layer.query(batch, executor)
        for batch in batches[context.warmup:]:
            acc.record(layer.query(batch, executor))
        label = "HugeCTR" if name == "hugectr" else "Fleche"
        rows.append([label, f"{acc.hit_rate:.1%}"])
    print(format_table(
        ["scheme", "hit rate"], rows,
        title=(f"Hit rates on {args.dataset} "
               f"(cache {args.ratio:.1%}, batch {args.batch})"),
    ))
    return 0


def _cmd_throughput(args) -> int:
    hw = default_platform()
    context = make_context(
        args.dataset, batch_size=args.batch, num_batches=args.batches,
        cache_ratio=args.ratio, scale=args.scale, hw=hw,
    )
    rows = []
    results = {}
    for name in ("hugectr", "fleche"):
        result = run_scheme(context, name, include_dense=args.end_to_end)
        results[name] = result
        rows.append([
            "HugeCTR" if name == "hugectr" else "Fleche",
            format_rate(result.throughput),
            format_time(result.median_latency),
            f"{result.hit_rate:.1%}",
        ])
    speedup = results["fleche"].throughput / results["hugectr"].throughput
    print(format_table(
        ["scheme", "throughput", "median latency", "hit rate"], rows,
        title=(f"{'End-to-end' if args.end_to_end else 'Embedding-layer'} "
               f"throughput on {args.dataset}, batch {args.batch} "
               f"(Fleche speedup x{speedup:.2f})"),
    ))
    return 0


def _cmd_fusion(args) -> int:
    from .tables.store import EmbeddingStore
    from .workloads.synthetic import synthetic_dataset, uniform_tables_spec

    hw = default_platform()
    rows = []
    for n in sorted({1, args.tables // 4 or 1, args.tables // 2 or 1,
                     args.tables}):
        spec = uniform_tables_spec(
            num_tables=n, corpus_size=max(1000, 250_000 // n), dim=32,
        )
        per_table = max(1, args.keys // n)
        trace = synthetic_dataset(spec, num_batches=6, batch_size=per_table)
        store = EmbeddingStore(spec.table_specs(), hw)
        times = {}
        for name in ("hugectr", "fleche"):
            if name == "fleche":
                layer = FlecheEmbeddingLayer(
                    store,
                    FlecheConfig(cache_ratio=0.1, use_unified_index=False),
                    hw,
                )
            else:
                layer = PerTableCacheLayer(
                    store, PerTableConfig(cache_ratio=0.1), hw
                )
            executor = Executor(hw)
            for b in list(trace)[:3]:
                layer.query(b, executor)
            executor.reset()
            for b in list(trace)[3:]:
                layer.query(b, executor)
            executor.drain()
            stats = executor.stats
            times[name] = (stats.maintenance_time
                           + stats.cache_query_time) / 3
        rows.append([n, format_time(times["hugectr"]),
                     format_time(times["fleche"])])
    print(format_table(
        ["# tables", "HugeCTR", "Fleche"], rows,
        title=f"Cache-query latency, {args.keys} keys total (Fig 14)",
    ))
    return 0


def _cmd_coding(args) -> int:
    from .coding.fixed_length import FixedLengthCodec
    from .coding.size_aware import SizeAwareCodec
    from .model.trainer import CollisionAucStudy, SyntheticCtrTask

    corpora = [64, 512, 4096]
    task = SyntheticCtrTask(
        corpus_sizes=corpora, num_train=12_000, num_test=3_000,
        alpha=-0.8, seed=5,
    )
    study = CollisionAucStudy(task, epochs=4)
    rows = [
        ["Kraken (fixed-length)",
         f"{study.auc_with_codec(FixedLengthCodec(corpora, key_bits=args.bits, table_bits=2)):.4f}"],
        ["Fleche (size-aware)",
         f"{study.auc_with_codec(SizeAwareCodec(corpora, key_bits=args.bits)):.4f}"],
        ["upper bound", f"{study.upper_bound_auc():.4f}"],
    ]
    print(format_table(
        ["codec", "AUC"], rows,
        title=f"Model quality at {args.bits}-bit flat keys (Fig 13)",
    ))
    return 0


def _cmd_serve(args) -> int:
    """Run a synthetic serving stream with live telemetry attached."""
    import time

    from .core.workflow import FlecheEmbeddingLayer as Layer
    from .obs import (
        MetricsHttpServer,
        WindowedCollector,
        default_serving_slos,
    )
    from .serving.arrivals import PoissonArrivals
    from .serving.batcher import BatchingPolicy
    from .serving.pipeline import PipelinedInferenceServer
    from .tables.store import EmbeddingStore
    from .workloads.synthetic import uniform_tables_spec

    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=args.tables, corpus_size=args.corpus, alpha=-1.2,
        dim=args.dim,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = Layer(store, FlecheConfig(cache_ratio=args.ratio), hw)
    slo_engine = default_serving_slos(args.sla)
    collector = WindowedCollector(
        window=args.window, sla_budget=args.sla, engine=slo_engine,
    )
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=args.depth,
        policy=BatchingPolicy(max_batch_size=512, max_delay=5e-4),
        collector=collector,
    )
    http = None
    if args.metrics_port is not None:
        http = MetricsHttpServer(
            server.obs, collector=collector, engine=slo_engine,
            port=args.metrics_port,
        ).start()
        print(f"metrics: {http.url('/metrics')}  "
              f"healthz: {http.url('/healthz')}  "
              f"series: {http.url('/series')}")
    requests = PoissonArrivals(dataset, args.rate, seed=2).generate(
        args.requests
    )
    report = server.serve(requests)
    print(format_table(
        ["requests", "throughput", "P50", "P99", f"SLA@{args.sla * 1e3:g}ms",
         "windows", "alerts"],
        [[report.served, format_rate(report.throughput),
          format_time(report.median_latency),
          format_time(report.p99_latency),
          f"{report.sla_attainment(args.sla):.1%}",
          collector.closed_windows, len(slo_engine.alerts)]],
        title=(f"Serving {args.requests} requests at "
               f"{format_rate(args.rate)} (depth {args.depth}, "
               f"{args.window * 1e3:g} ms windows)"),
    ))
    if args.emit:
        from .bench.reporting import emit_timeseries

        for path in emit_timeseries(collector):
            print(f"wrote {path}")
    if http is not None:
        if args.hold > 0:
            print(f"serving metrics for {args.hold:g}s more "
                  "(ctrl-c to stop) ...")
            try:
                time.sleep(args.hold)
            except KeyboardInterrupt:
                pass
        http.close()
    return 0


def _cmd_scenario(args) -> int:
    """Adversarial scenario serving (``repro scenario list|run``)."""
    from .scenarios import SCENARIOS

    if args.scenario_command == "list":
        rows = [
            [name, cls.__name__, (cls.__doc__ or "").strip().splitlines()[0]]
            for name, cls in sorted(SCENARIOS.items())
        ]
        print(format_table(["name", "class", "summary"], rows,
                           title="Adversarial scenario catalogue"))
        return 0

    from .autotune import AdaptiveController
    from .core.precision import PrecisionConfig
    from .core.workflow import FlecheEmbeddingLayer as Layer
    from .obs import WindowedCollector, default_serving_slos
    from .scenarios import build_scenario, validate_load
    from .serving.batcher import BatchingPolicy
    from .serving.pipeline import PipelinedInferenceServer
    from .tables.store import EmbeddingStore
    from .workloads.synthetic import uniform_tables_spec

    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=args.tables, corpus_size=args.corpus, alpha=-1.2,
        dim=args.dim,
    )
    scenario = build_scenario(
        args.name, dataset, seed=args.seed, base_rate=args.rate,
    ) if args.name in ("flash_crowd", "cold_start_flood") else build_scenario(
        args.name, dataset, seed=args.seed,
    )
    load = scenario.build()
    validate_load(load, dataset)

    config = FlecheConfig(cache_ratio=args.ratio)
    if args.autotune:
        # The controller's tier-rebalance lever needs the quantizing
        # (multi-tier) slab layout to have anything to move.
        config = FlecheConfig(
            cache_ratio=args.ratio,
            precision=PrecisionConfig(enabled=True),
        )
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = Layer(store, config, hw)
    if args.admission < 1.0:
        layer.cache.set_admission_probability(args.admission)
    slo_engine = default_serving_slos(args.sla)
    collector = WindowedCollector(
        window=args.window, sla_budget=args.sla, engine=slo_engine,
    )
    if load.tenant_of is not None:
        collector.set_tenancy(load.tenant_of, load.tenant_slos)
    autotuner = AdaptiveController() if args.autotune else None
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=2,
        policy=BatchingPolicy(max_batch_size=512, max_delay=5e-4),
        collector=collector,
        autotuner=autotuner,
    )
    if load.update_log is not None:
        from .refresh import RefreshScheduler, UpdateSubscriber

        subscriber = UpdateSubscriber(
            load.update_log, layer.cache, host_store=layer.store,
        )
        subscriber.bind_observability(server.obs)
        server.refresher = RefreshScheduler(subscriber, hw)
    report = server.serve(load.requests)

    def _acc(name: str) -> int:
        return int(server.obs.total(name))

    rows = [[
        report.served, format_rate(report.throughput),
        format_time(report.median_latency), format_time(report.p99_latency),
        f"{report.sla_attainment(args.sla):.1%}",
        collector.closed_windows,
        _acc("autotune.applied") if args.autotune else "-",
        _acc("autotune.suppressed") if args.autotune else "-",
        _acc("autotune.clamped") if args.autotune else "-",
    ]]
    print(format_table(
        ["requests", "throughput", "P50", "P99",
         f"SLA@{args.sla * 1e3:g}ms", "windows",
         "applied", "suppressed", "clamped"],
        rows,
        title=(f"Scenario {args.name!r} (seed {args.seed}, "
               f"controller {'on' if args.autotune else 'off'})"),
    ))
    for phase in load.phases:
        note = f"  [{phase.note}]" if phase.note else ""
        print(f"  phase {phase.name}: {phase.start * 1e3:.2f}-"
              f"{phase.end * 1e3:.2f} ms @ {format_rate(phase.rate)}{note}")
    if args.emit:
        from .bench.reporting import emit_timeseries

        for path in emit_timeseries(collector):
            print(f"wrote {path}")
    return 0


def _cmd_obs(args) -> int:
    """Observability artifact tooling (``repro obs render``)."""
    from .bench.reporting import load_artifact
    from .obs import render_openmetrics
    from .obs.exposition import snapshot_from_payload

    if args.obs_command == "render":
        payload = load_artifact(args.metrics)
        snapshot = snapshot_from_payload(payload)
        sys.stdout.write(render_openmetrics(snapshot))
        return 0
    if args.obs_command == "critical-path":
        from .bench.reporting import emit_json
        from .obs import analyze_payload, top_table_rows

        payload = load_artifact(args.trace, kind="reqtrace")
        analysis = analyze_payload(payload, top=args.top)
        causes = analysis["rootcause"].get("causes", {})
        budget = analysis.get("sla_budget_s")
        print(
            f"{analysis['sampled']} sampled of {analysis['requests']} "
            f"requests"
            + (f", SLA budget {budget * 1e3:.3f}ms" if budget else "")
        )
        if causes:
            print(format_table(
                ["root cause", "violations"],
                [[k, str(causes[k])] for k in sorted(causes)],
            ))
        print(format_table(
            ["request", "latency_ms", "dispatch", "rootcause",
             "dominant segments"],
            top_table_rows(analysis),
        ))
        if args.emit:
            print(f"wrote {emit_json('critical_path', analysis)}")
        return 0
    return 2  # pragma: no cover - argparse enforces the choice


def _refresh_setup(args):
    """Shared scaffolding for ``repro refresh``: dataset, log, stream.

    Builds a deterministic update stream (trainer seeded, one version per
    round, round ``i`` published at simulated time ``i + 1``) and returns
    ``(build_replica, log, horizon)`` where ``build_replica(warm=True)``
    constructs one serving replica, warmed by querying a synthetic trace
    so the cache holds the hot keys the trainer churns.
    """
    from .model.trainer import EmbeddingDeltaTrainer
    from .refresh import UpdateLog, UpdatePublisher
    from .tables.store import EmbeddingStore
    from .workloads.synthetic import synthetic_dataset, uniform_tables_spec

    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=args.tables, corpus_size=args.corpus, alpha=-1.2,
        dim=args.dim,
    )
    specs = dataset.table_specs()

    def build_replica(warm: bool = True):
        store = EmbeddingStore(specs, hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=args.ratio), hw
        )
        if warm:
            trace = synthetic_dataset(
                dataset, num_batches=6, batch_size=256
            )
            executor = Executor(hw)
            for batch in trace:
                layer.query(batch, executor)
        return layer

    log = UpdateLog(retention=args.retention)
    publisher = UpdatePublisher(log, max_batch_keys=args.quantum)
    trainer = EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in specs],
        [spec.dim for spec in specs],
        keys_per_round=args.keys_per_round, seed=9,
    )
    for i in range(args.rounds):
        publisher.drain(trainer, now=float(i + 1))
    return build_replica, log, float(args.rounds + 1)


def _cmd_refresh(args) -> int:
    """Model-refresh stream tooling (``repro refresh replay|status``)."""
    from .refresh import UpdateSubscriber, fingerprint

    build_replica, log, horizon = _refresh_setup(args)

    if args.refresh_command == "status":
        layer = build_replica()
        subscriber = UpdateSubscriber(log, layer.cache)
        applied_rounds = (
            args.rounds // 2 if args.applied_rounds is None
            else args.applied_rounds
        )
        subscriber.catch_up(float(applied_rounds) + 0.5)
        rows = [[f"log.{k}", v] for k, v in log.describe().items()]
        rows += [
            [f"replica.{k}", v]
            for k, v in subscriber.status(horizon).items()
        ]
        print(format_table(
            ["field", "value"], rows,
            title=(f"Update-stream position after {applied_rounds}/"
                   f"{args.rounds} rounds"),
        ))
        return 0

    # replay: the crash-recovery demo.  Replica A consumes the stream
    # uninterrupted; replica B dies mid-stream leaving only a snapshot;
    # the replacement restores it and replays the log to convergence.
    kill_after = (
        args.rounds // 2 if args.kill_after is None else args.kill_after
    )
    layer_a = build_replica()
    sub_a = UpdateSubscriber(log, layer_a.cache)
    sub_a.catch_up(horizon)

    layer_b = build_replica()
    sub_b = UpdateSubscriber(log, layer_b.cache)
    sub_b.catch_up(float(kill_after) + 0.5)
    snap = sub_b.snapshot()
    del layer_b, sub_b

    layer_c = build_replica(warm=False)
    sub_c = UpdateSubscriber.from_snapshot(snap, layer_c.cache, log)
    replayed = sub_c.catch_up(horizon)

    converged = fingerprint(layer_a.cache) == fingerprint(layer_c.cache)
    print(format_table(
        ["field", "value"],
        [
            ["published versions", args.rounds],
            ["published keys", log.total_keys],
            ["killed at version", snap.model_version],
            ["snapshot offset", snap.log_offset],
            ["replayed batches", replayed],
            ["restored version", sub_c.applied_version],
            ["converged", "yes" if converged else "NO"],
        ],
        title="Snapshot + log replay vs an uninterrupted replica",
    ))
    return 0 if converged else 1


def _cluster_setup(args):
    """Shared scaffolding for ``repro cluster``: dataset, log, config.

    Publishes ``args.rounds`` trainer rounds spread evenly across the
    serving horizon so every replica has a refresh stream to subscribe
    to (and a snapshot/replay path to exercise in the drill).
    """
    from .cluster import ClusterConfig
    from .model.trainer import EmbeddingDeltaTrainer
    from .refresh import UpdateLog, UpdatePublisher
    from .workloads.synthetic import uniform_tables_spec

    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=args.tables, corpus_size=args.corpus, alpha=-1.2,
        dim=args.dim,
    )
    specs = dataset.table_specs()
    log = UpdateLog(retention=1_000_000)
    publisher = UpdatePublisher(log, max_batch_keys=256)
    trainer = EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in specs],
        [spec.dim for spec in specs],
        keys_per_round=args.keys_per_round, seed=11,
    )
    for i in range(args.rounds):
        publisher.drain(
            trainer, now=args.horizon * (i + 1) / (args.rounds + 1)
        )
    config = ClusterConfig(
        num_replicas=args.replicas,
        policy=args.policy,
        cache_ratio=args.ratio,
        hot_keys=args.hot_keys,
    )
    return hw, dataset, log, config


def _cluster_requests(dataset, args):
    from .serving.arrivals import PoissonArrivals

    return PoissonArrivals(dataset, args.rate, seed=args.seed).generate_until(
        args.horizon
    )


def _cluster_victim(dataset, args) -> int:
    """The replica that consistent-hash owns the Zipf hottest key —
    killing it is the worst case for an unrouted deployment."""
    from .multigpu.partition import HashPartitioner
    from .workloads.zipf import zipf_head_ids

    hottest = zipf_head_ids(dataset.fields[:1], args.seed, 1)[0]
    return int(HashPartitioner(args.replicas).owner_of(hottest)[0])


def _cmd_cluster(args) -> int:
    """Multi-replica serving tooling (``repro cluster serve|drill|status``)."""
    import dataclasses

    from .cluster import ClusterRouter
    from .cluster.health import HEARTBEAT_INTERVAL
    from .faults import FaultSchedule, ReplicaCrash

    hw, dataset, log, config = _cluster_setup(args)
    requests = _cluster_requests(dataset, args)

    if args.cluster_command == "serve":
        router = ClusterRouter(dataset, hw, config=config, update_log=log)
        report = router.serve(requests)
        rows = [
            ["requests", len(requests)],
            ["served", report.served],
            ["shed", report.shed],
            ["SLA attainment", f"{report.sla_attainment(args.sla):.1%}"],
            ["p50 latency", format_time(report.percentile(50))],
            ["p99 latency", format_time(report.percentile(99))],
        ]
        for r, summary in sorted(report.per_replica.items()):
            rows.append([
                f"replica {r} dispatched",
                f"{summary['dispatched']} "
                f"(version {summary.get('applied_version', '-')})",
            ])
        print(format_table(
            ["field", "value"], rows,
            title=(f"Fault-free cluster: {args.replicas} replicas, "
                   f"{args.policy} routing"),
        ))
        return 0

    # drill and status both stage the same kill: crash the replica that
    # owns the hottest key for the middle of the run.
    start = args.horizon * args.crash_at
    duration = args.horizon * args.crash_for
    victim = _cluster_victim(dataset, args)
    schedule = FaultSchedule(
        [ReplicaCrash(replica=victim, start=start, duration=duration)]
    )

    if args.cluster_command == "status":
        router = ClusterRouter(
            dataset, hw, config=config, schedule=schedule, update_log=log
        )
        horizon = args.horizon + 16 * HEARTBEAT_INTERVAL
        timelines = router.monitor.observe(horizon)
        rows = []
        for r in sorted(timelines):
            for t in timelines[r].transitions:
                rows.append([r, format_time(t.at), t.state])
        print(format_table(
            ["replica", "at", "state"], rows,
            title=(f"Health timeline: replica {victim} killed "
                   f"{format_time(start)}-{format_time(start + duration)}"),
        ))
        return 0

    # drill: routed cluster vs an unrouted baseline on identical traffic.
    from .bench.harness import alert_timing

    router = ClusterRouter(
        dataset, hw, config=config, schedule=schedule, update_log=log
    )
    routed = router.serve(requests)
    unrouted_cfg = dataclasses.replace(config, failover=False)
    baseline = ClusterRouter(
        dataset, hw, config=unrouted_cfg, schedule=schedule, update_log=log
    ).serve(requests)

    timing = alert_timing(routed.alerts, start, start + duration)
    counts = routed.disposition_counts()
    rows = [
        ["victim replica", victim],
        ["crash window",
         f"{format_time(start)} - {format_time(start + duration)}"],
        ["routed SLA", f"{routed.sla_attainment(args.sla):.1%}"],
        ["unrouted SLA", f"{baseline.sla_attainment(args.sla):.1%}"],
        ["routed shed", routed.shed],
        ["unrouted shed", baseline.shed],
        ["failovers served", counts["failover"]],
        ["time to detect",
         "-" if timing["ttd_s"] is None else format_time(timing["ttd_s"])],
        ["time to resolve",
         "-" if timing["ttr_s"] is None else format_time(timing["ttr_s"])],
        ["early alerts", timing["early_alerts"]],
    ]
    for r, summary in sorted(routed.per_replica.items()):
        if "version_lag" in summary:
            rows.append([f"replica {r} version lag", summary["version_lag"]])
    print(format_table(
        ["field", "value"], rows,
        title=(f"Kill drill: {args.replicas} replicas, {args.policy} "
               f"routing, hot owner down"),
    ))
    healthy = (
        routed.shed == 0
        and timing["ttd_s"] is not None
        and timing["early_alerts"] == 0
    )
    return 0 if healthy else 1


def _cmd_trace(args) -> int:
    from .gpusim.tracing import TraceRecorder

    hw = default_platform()
    context = make_context(
        args.dataset, batch_size=args.batch, num_batches=4,
        scale=args.scale, hw=hw, warmup=3,
    )
    layer = FlecheEmbeddingLayer(
        context.store, FlecheConfig(cache_ratio=context.cache_ratio), hw
    )
    executor = Executor(hw)
    batches = list(context.trace)
    for batch in batches[:3]:
        layer.query(batch, executor)
    recorder = TraceRecorder.attach(executor)
    layer.query(batches[3], executor)
    path = recorder.export_json(args.out)
    print(f"wrote {len(recorder.spans)} spans on "
          f"{len(recorder.tracks())} tracks to {path}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fleche reproduction: run paper experiments from the CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    def common(p):
        p.add_argument("--dataset", default="avazu",
                       choices=("avazu", "criteo-kaggle", "criteo-tb"))
        p.add_argument("--batch", type=int, default=1024)
        p.add_argument("--batches", type=int, default=16)
        p.add_argument("--ratio", type=float, default=0.05)
        p.add_argument("--scale", type=float, default=0.2)

    p = sub.add_parser("hitrate", help="hit rates (Figs 3, 12)")
    common(p)
    p = sub.add_parser("throughput", help="throughput (Fig 9)")
    common(p)
    p.add_argument("--end-to-end", action="store_true")
    p = sub.add_parser("fusion", help="latency vs table count (Fig 14)")
    p.add_argument("--tables", type=int, default=60)
    p.add_argument("--keys", type=int, default=10_000)
    p = sub.add_parser("coding", help="coding AUC (Fig 13)")
    p.add_argument("--bits", type=int, default=10)
    p = sub.add_parser("trace", help="export one batch's timeline")
    p.add_argument("--dataset", default="avazu",
                   choices=("avazu", "criteo-kaggle", "criteo-tb"))
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--out", default="fleche.trace.json")
    p = sub.add_parser("run", help="run a registered paper experiment")
    p.add_argument("experiment", help="experiment id (see `repro list`)")
    p = sub.add_parser(
        "serve", help="serve a synthetic stream with live telemetry"
    )
    p.add_argument("--tables", type=int, default=8)
    p.add_argument("--corpus", type=int, default=20_000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--ratio", type=float, default=0.05)
    p.add_argument("--rate", type=float, default=400_000.0,
                   help="offered load (requests/sec, Poisson)")
    p.add_argument("--requests", type=int, default=2_000)
    p.add_argument("--depth", type=int, default=2,
                   help="pipeline depth (1 = one batch at a time)")
    p.add_argument("--window", type=float, default=1e-3,
                   help="collector window (simulated seconds)")
    p.add_argument("--sla", type=float, default=2e-3,
                   help="per-request latency budget (seconds)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="expose /metrics,/healthz,/series on this port "
                        "(0 = ephemeral)")
    p.add_argument("--hold", type=float, default=0.0,
                   help="keep the metrics endpoint up this many wall "
                        "seconds after the run")
    p.add_argument("--emit", action="store_true",
                   help="persist series.json/alerts.json under "
                        "benchmarks/results")
    from .scenarios import SCENARIOS

    p = sub.add_parser(
        "scenario", help="adversarial scenarios + adaptive tiering"
    )
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list the scenario catalogue")
    q = scenario_sub.add_parser(
        "run",
        help="serve one adversarial scenario, optionally with the "
             "adaptive controller closed-loop",
    )
    q.add_argument("--name", default="flash_crowd",
                   choices=sorted(SCENARIOS))
    q.add_argument("--tables", type=int, default=6)
    q.add_argument("--corpus", type=int, default=12_000)
    q.add_argument("--dim", type=int, default=16)
    q.add_argument("--ratio", type=float, default=0.03)
    q.add_argument("--rate", type=float, default=150_000.0,
                   help="base arrival rate (requests/sec)")
    q.add_argument("--seed", type=int, default=7)
    q.add_argument("--window", type=float, default=1e-3,
                   help="collector window (simulated seconds)")
    q.add_argument("--sla", type=float, default=2e-3,
                   help="per-request latency budget (seconds)")
    q.add_argument("--autotune", action="store_true",
                   help="attach the closed-loop adaptive controller")
    q.add_argument("--admission", type=float, default=1.0,
                   help="static admission probability (the controller "
                        "retunes it at runtime when --autotune is on)")
    q.add_argument("--emit", action="store_true",
                   help="persist series.json under benchmarks/results")

    p = sub.add_parser("obs", help="observability artifact tooling")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "render", help="render a metrics.json artifact as OpenMetrics text"
    )
    p.add_argument("--metrics", default="benchmarks/results/metrics.json",
                   help="path to an emitted metrics.json")
    p = obs_sub.add_parser(
        "critical-path",
        help="top-k slowest traced requests with segment decomposition "
             "and SLA-miss root causes",
    )
    p.add_argument("--trace", default="benchmarks/results/reqtrace.json",
                   help="path to an emitted reqtrace.json artifact")
    p.add_argument("--top", type=int, default=10,
                   help="how many slowest requests to show")
    p.add_argument("--emit", action="store_true",
                   help="persist the analysis as critical_path.json "
                        "under benchmarks/results")
    p = sub.add_parser("refresh", help="model-refresh stream tooling")
    refresh_sub = p.add_subparsers(dest="refresh_command", required=True)

    def refresh_common(q):
        q.add_argument("--tables", type=int, default=4)
        q.add_argument("--corpus", type=int, default=5_000)
        q.add_argument("--dim", type=int, default=8)
        q.add_argument("--ratio", type=float, default=0.05)
        q.add_argument("--rounds", type=int, default=8,
                       help="trainer rounds (one model version each)")
        q.add_argument("--keys-per-round", type=int, default=64)
        q.add_argument("--quantum", type=int, default=256,
                       help="max keys per published batch")
        q.add_argument("--retention", type=int, default=1024,
                       help="update-log retention (batches)")

    q = refresh_sub.add_parser(
        "replay",
        help="crash-recovery demo: snapshot + log replay convergence",
    )
    refresh_common(q)
    q.add_argument("--kill-after", type=int, default=None,
                   help="versions applied before the crash "
                        "(default: half the rounds)")
    q = refresh_sub.add_parser(
        "status", help="print a replica's update-stream position"
    )
    refresh_common(q)
    q.add_argument("--applied-rounds", type=int, default=None,
                   help="rounds applied before reporting "
                        "(default: half the rounds)")

    from .cluster import POLICY_NAMES

    p = sub.add_parser(
        "cluster", help="fault-tolerant multi-replica serving tooling"
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    def cluster_common(q):
        q.add_argument("--replicas", type=int, default=4)
        q.add_argument("--policy", default="hash", choices=POLICY_NAMES)
        q.add_argument("--tables", type=int, default=4)
        q.add_argument("--corpus", type=int, default=8_000)
        q.add_argument("--dim", type=int, default=16)
        q.add_argument("--ratio", type=float, default=0.05)
        q.add_argument("--rate", type=float, default=120_000.0,
                       help="offered load (requests/sec, Poisson)")
        q.add_argument("--horizon", type=float, default=0.03,
                       help="simulated seconds of traffic")
        q.add_argument("--sla", type=float, default=2e-3,
                       help="per-request latency budget (seconds)")
        q.add_argument("--hot-keys", type=int, default=128,
                       help="Zipf head replicated onto every replica")
        q.add_argument("--rounds", type=int, default=12,
                       help="trainer rounds published over the horizon")
        q.add_argument("--keys-per-round", type=int, default=64)
        q.add_argument("--seed", type=int, default=5)
        q.add_argument("--crash-at", type=float, default=0.3,
                       help="crash start as a fraction of the horizon")
        q.add_argument("--crash-for", type=float, default=0.4,
                       help="crash duration as a fraction of the horizon")

    q = cluster_sub.add_parser(
        "serve", help="fault-free routed run with per-replica dispatch"
    )
    cluster_common(q)
    q = cluster_sub.add_parser(
        "drill",
        help="kill the hot-owner replica: routed vs unrouted SLA",
    )
    cluster_common(q)
    q = cluster_sub.add_parser(
        "status", help="print the failure detector's health timeline"
    )
    cluster_common(q)
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "hitrate": _cmd_hitrate,
    "throughput": _cmd_throughput,
    "fusion": _cmd_fusion,
    "coding": _cmd_coding,
    "trace": _cmd_trace,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "scenario": _cmd_scenario,
    "obs": _cmd_obs,
    "refresh": _cmd_refresh,
    "cluster": _cmd_cluster,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
