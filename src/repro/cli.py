"""Command-line interface: serving, scenario and observability tooling.

Usage::

    python -m repro trace --out batch.trace.json
    python -m repro serve --metrics-port 0
    python -m repro scenario run --name flash_crowd --autotune
    python -m repro obs render --metrics benchmarks/results/metrics.json

``trace`` exports a Chrome-trace JSON of one batch's simulated timeline,
``serve`` runs a synthetic stream with live telemetry, ``scenario`` serves
one adversarial scenario and ``obs`` renders emitted artifacts.  The
paper's figures and tables are reproduced by ``python
benchmarks/claims.py``, the refresh recovery check and the cluster kill
drill by ``python benchmarks/bench_<x>.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import (
    Executor, FlecheConfig, FlecheEmbeddingLayer, SpanTracer, default_platform,
)
from .bench.harness import make_context
from .bench.reporting import format_rate, format_table, format_time


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

    # The quantizing layout with and without the controller, so that the
    # two runs differ only by it (the boost's tier-threshold step needs
    # precision tiers to act on).
    config = FlecheConfig(
        cache_ratio=args.ratio,
        precision=PrecisionConfig(
            fp32_share=0.25, fp16_share=0.25, int8_share=0.5
        ),
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

    rows = [[
        report.served, format_rate(report.throughput),
        format_time(report.median_latency), format_time(report.p99_latency),
        f"{report.sla_attainment(args.sla):.1%}",
        collector.closed_windows,
        int(server.obs.total("autotune.boosts")) if args.autotune else "-",
    ]]
    print(format_table(
        ["requests", "throughput", "P50", "P99",
         f"SLA@{args.sla * 1e3:g}ms", "windows", "boosts"],
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


def _cmd_trace(args) -> int:
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
    tracer = SpanTracer.attach(executor)
    layer.query(batches[3], executor)
    path = tracer.export_json(args.out)
    print(f"wrote {len(tracer.spans)} spans on "
          f"{len(tracer.tracks())} tracks to {path}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fleche reproduction: serving, scenario and "
                    "observability tooling (the paper's experiments are "
                    "the benchmarks/bench_*.py scripts)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="export one batch's timeline")
    p.add_argument("--dataset", default="avazu",
                   choices=("avazu", "criteo-kaggle", "criteo-tb"))
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--out", default="fleche.trace.json")
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
                   help="admission probability (with --autotune, a "
                        "drift boost raises it for a few windows and "
                        "then restores it)")
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
    return parser


_COMMANDS = {
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "scenario": _cmd_scenario,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
