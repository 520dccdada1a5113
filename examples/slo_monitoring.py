"""SLO monitoring scenario: windowed telemetry, scraping, and alerting.

Serves an open-loop Poisson stream through the pipelined server with a
windowed collector and the default burn-rate SLO catalogue attached,
injects a parameter-server shard outage halfway through, and shows

* the per-window series the collector captured (hit rate, p99, SLA),
* the alert lifecycle the outage triggered (time-to-detect /
  time-to-recover on the simulated clock),
* a live scrape of the embedded ``/metrics`` endpoint, validated with
  the bundled OpenMetrics parser.

The same data is reachable from the CLI:

    repro serve --requests 2000 --metrics-port 0 --emit
    repro obs render --metrics benchmarks/results/metrics.json

Run:  python examples/slo_monitoring.py
"""

import urllib.request

from repro import (
    EmbeddingStore,
    FlecheConfig,
    FlecheEmbeddingLayer,
    default_platform,
    uniform_tables_spec,
)
from repro.bench.reporting import format_table, format_time
from repro.faults import (
    DegradeConfig,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    ShardOutage,
)
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.obs import (
    MetricsHttpServer,
    WindowedCollector,
    default_serving_slos,
    parse_openmetrics,
)
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer

SLA = 2.5e-3     # per-request latency budget
HORIZON = 0.06   # simulated seconds of traffic
WINDOW = 1e-3    # collector window


def main() -> None:
    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=4_000, alpha=-1.2, dim=16,
    )

    # A tiered store whose remote shards all go dark mid-run.
    outage_start = 0.4 * HORIZON
    outage_duration = 0.2 * HORIZON
    remote = RemoteParameterServer(
        dataset.table_specs(),
        injector=FaultInjector(FaultSchedule([
            ShardOutage(shard=s, start=outage_start, duration=outage_duration)
            for s in range(4)
        ]), seed=17),
        retry_policy=RetryPolicy.naive(timeout=1e-3),
    )
    store = TieredParameterStore(
        dataset.table_specs(), hw, dram_capacity=800, remote=remote,
        degrade=DegradeConfig(policy="stale"),
    )
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)

    # Collector + the standard SLO catalogue (latency 99%, degraded 99.5%).
    engine = default_serving_slos(SLA)
    collector = WindowedCollector(window=WINDOW, sla_budget=SLA, engine=engine)
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=2,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
    )
    server.observers.append(collector)
    requests = PoissonArrivals(dataset, 40_000.0, seed=5).generate_until(HORIZON)
    server.serve(requests)

    # --- The windowed series around the outage.
    rows = []
    for record in list(collector.windows)[::6]:
        rows.append([
            record.index,
            format_time(record.start),
            f"{record.value('hit_rate', float('nan')):.2f}",
            format_time(record.value('latency_p99_s')),
            f"{record.value('sla_attainment', 1.0):.1%}",
            int(record.value("degraded_requests")),
        ])
    print(format_table(
        ["window", "start", "hit rate", "p99", f"SLA@{SLA * 1e3:.1f}ms",
         "degraded"],
        rows,
        title=(f"Windowed series, every 6th of "
               f"{collector.closed_windows} windows "
               f"(outage at {format_time(outage_start)} for "
               f"{format_time(outage_duration)})"),
    ))

    # --- The alert lifecycle the outage produced.
    alert_rows = [[
        a.rule, a.state, format_time(a.fired_at),
        "-" if a.resolved_at is None else format_time(a.resolved_at),
        f"{a.peak_burn_rate:.0f}x",
    ] for a in engine.alerts]
    print()
    print(format_table(
        ["rule", "state", "fired", "resolved", "peak burn"],
        alert_rows, title="Burn-rate alerts",
    ))
    ttd = engine.time_to_detect(outage_start)
    ttr = engine.time_to_recover(outage_start + outage_duration)
    print(f"\ntime-to-detect  {format_time(ttd)} after the outage began"
          f"\ntime-to-recover {format_time(ttr)} after it ended")

    # --- Scrape the run like a monitoring system would.
    with MetricsHttpServer(server.obs, collector=collector,
                           engine=engine) as metrics:
        with urllib.request.urlopen(metrics.url("/metrics")) as response:
            text = response.read().decode("utf-8")
    families = parse_openmetrics(text)
    hits = families["cache_hits"]["samples"][0][2]
    print(f"\nscraped {len(families)} OpenMetrics families from "
          f"/metrics (cache_hits_total={hits:g})")


if __name__ == "__main__":
    main()
