"""Observability cost study: collector overhead and detection latency.

Two questions gate turning the windowed collector on by default:

1. **What does it cost?**  The collector folds a registry counter delta
   per completed batch — real Python work on the *host* wall clock, even
   though the windows themselves live on the simulated clock.  The sweep
   serves the same pipelined request stream with no collector and with
   collectors at several window sizes, and reports the wall-clock
   overhead; at the default window it must stay under
   :data:`OVERHEAD_LIMIT` (5%) of serving throughput.

2. **What does window size buy?**  Finer windows detect an injected
   shard outage sooner (the burn-rate rules see the bad ratio earlier)
   but cost more closes; the detection sweep prints time-to-detect /
   time-to-recover per window size for the same outage.

3. **What does request tracing cost?**  The per-request tracer records
   one ``BatchTraceRecord`` per batch and materializes full traces only
   for the sampled set, so its cost should track the head-sampling
   interval, not the request count.  The tracing sweep pairs traced and
   untraced runs across sampling interval x pipeline depth and reports
   the median wall-clock ratio; at the default interval it must stay
   under :data:`TRACE_OVERHEAD_LIMIT` (5%).

Runs standalone: ``python benchmarks/bench_obs_overhead.py --smoke``.
"""

import gc
import statistics
import time

from repro import FlecheConfig
from repro.bench.reporting import emit, format_table, format_time
from repro.core.workflow import FlecheEmbeddingLayer
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
    RequestTracer,
    TraceConfig,
    WindowedCollector,
    default_serving_slos,
)
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

US = 1e-6
SLA_BUDGET = 2e-3
#: Window widths swept (simulated seconds); the serving default is 1 ms.
WINDOW_SIZES = (2.5e-4, 1e-3, 4e-3)
DEFAULT_WINDOW = 1e-3
#: Wall-clock overhead budget for the default window.
OVERHEAD_LIMIT = 0.05

#: Head-sampling intervals swept for the tracing cost study; the serving
#: default is :class:`~repro.obs.reqtrace.TraceConfig`'s ``head_interval``
#: (interval 1 traces every request — the worst case).
TRACE_INTERVALS = (1, 16, 64)
DEFAULT_TRACE_INTERVAL = TraceConfig().head_interval
#: Pipeline depths the tracing sweep crosses with the intervals.
TRACE_DEPTHS = (1, 2, 4)
#: Wall-clock overhead budget for tracing at the default interval.
TRACE_OVERHEAD_LIMIT = 0.05

#: Offered load for the overhead sweep (saturating, like the depth sweep).
RATE = 2_400_000.0

#: Outage geometry for the detection sweep.
FAULT_RATE = 40_000.0
FAULT_HORIZON = 0.08
FAULT_SLA = 2.5e-3
OUTAGE_FRACTION = 0.2
NUM_SHARDS = 4


# ---------------------------------------------------------------------------
# Overhead vs window size
# ---------------------------------------------------------------------------


def _serve_once(hw, dataset, requests, warm, window=None, depth=2,
                trace_interval=None):
    """One pipelined serving run; returns wall-clock seconds of ``serve``.

    A fresh server (fresh cache, fresh registry) per run so every
    measurement replays identical work; the collector — when ``window``
    is given — carries the default serving SLO engine, matching how the
    serving benchmarks run it.  When ``trace_interval`` is given a
    request tracer with that head-sampling interval is attached *after*
    the warm run (one tracer traces one run), so the timed section pays
    exactly the steady-state tracing cost.
    """
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    collector = None
    if window is not None:
        collector = WindowedCollector(
            window=window, sla_budget=SLA_BUDGET,
            engine=default_serving_slos(SLA_BUDGET),
        )
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=depth,
        policy=BatchingPolicy(max_batch_size=512, max_delay=5e-4),
        collector=collector,
    )
    server.serve(warm)
    if trace_interval is not None:
        server.reqtracer = RequestTracer(TraceConfig(
            head_interval=trace_interval, sla_budget=SLA_BUDGET,
        ))
    # GC control around the timed section (pyperf-style): collect the
    # previous run's garbage (each run builds a fresh ~10 MB store), then
    # keep the cyclic collector from firing mid-measurement — its pauses
    # land on whichever config happens to cross a threshold, not on the
    # config that caused the allocations.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        report = server.serve(requests)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    assert report.served == len(requests)
    if collector is not None:
        assert collector.closed_windows > 0
    if trace_interval is not None:
        assert report.traced_requests == len(requests)
        assert report.sampled_traces > 0
    return elapsed


def run_overhead_sweep(hw, num_requests=10_000, repeats=5):
    """Wall-clock cost of collection vs window size.

    Returns ``{label: (best wall seconds, overhead vs baseline)}``.
    Repeats are round-robin across configurations (every config measured
    once per round, adjacent to that round's baseline run), and the
    reported overhead is the **median of the per-round ratios** against
    the same round's baseline: slow drift — allocator warmup, thermal
    state, background load — hits both sides of a pair roughly equally
    and cancels in the ratio, and the median then discards the rounds a
    scheduler hiccup contaminated in either direction.
    """
    dataset = uniform_tables_spec(
        num_tables=8, corpus_size=20_000, alpha=-1.2, dim=32,
    )
    warm = PoissonArrivals(dataset, 200_000.0, seed=1).generate(400)
    requests = PoissonArrivals(dataset, RATE, seed=2).generate(num_requests)

    configs = [None] + list(WINDOW_SIZES)
    times = {window: [] for window in configs}
    for _ in range(repeats):
        for window in configs:
            times[window].append(
                _serve_once(hw, dataset, requests, warm, window=window)
            )

    results = {"none": (min(times[None]), 0.0)}
    for window in WINDOW_SIZES:
        overhead = statistics.median(
            paired / base
            for paired, base in zip(times[window], times[None])
        ) - 1.0
        results[f"{window * 1e3:g}ms"] = (min(times[window]), overhead)
    return results


def emit_overhead_sweep(results):
    rows = []
    for label, (elapsed, overhead) in results.items():
        rows.append([
            label, f"{elapsed * 1e3:.1f} ms",
            "-" if label == "none" else f"{overhead:+.1%}",
        ])
    emit("obs_overhead", format_table(
        ["window", "wall time", "overhead"],
        rows,
        title="Windowed collector: wall-clock overhead vs window size",
    ))


def check_overhead_sweep(results):
    """At the default window the collector costs < 5% of throughput."""
    label = f"{DEFAULT_WINDOW * 1e3:g}ms"
    _, overhead = results[label]
    assert overhead < OVERHEAD_LIMIT, (
        f"collector overhead {overhead:.1%} at the default "
        f"{label} window exceeds the {OVERHEAD_LIMIT:.0%} budget"
    )


def test_collector_overhead(hw, run_once):
    results = run_once(run_overhead_sweep, hw)
    emit_overhead_sweep(results)
    check_overhead_sweep(results)


# ---------------------------------------------------------------------------
# Tracing overhead vs sampling interval x depth
# ---------------------------------------------------------------------------


def run_tracing_overhead_sweep(hw, num_requests=16_000, repeats=8,
                               depths=TRACE_DEPTHS,
                               intervals=TRACE_INTERVALS):
    """Wall-clock cost of request tracing vs sampling interval and depth.

    Same round-robin protocol as :func:`run_overhead_sweep` (each depth
    gets its own untraced baseline, every configuration measured once
    per round), reporting two estimators per point: **best vs best**
    (``min(traced) / min(untraced) - 1`` across rounds — timing noise
    on a shared machine is one-sided, preemption and allocator stalls
    only ever *add* time, so the minima converge on the true cost) and
    the **median of per-round paired ratios** (robust to a few
    contaminated rounds).  They fail on different noise modes — a burst
    spanning several rounds skews the median but rarely *both* minima;
    a burst hitting exactly the baseline minima skews best-vs-best but
    not the median — so the gate accepts whichever is smaller.  Returns
    one row dict per ``(depth, interval)`` point.
    """
    dataset = uniform_tables_spec(
        num_tables=8, corpus_size=20_000, alpha=-1.2, dim=32,
    )
    warm = PoissonArrivals(dataset, 200_000.0, seed=1).generate(400)
    requests = PoissonArrivals(dataset, RATE, seed=2).generate(num_requests)

    points = [(d, i) for d in depths for i in (None,) + tuple(intervals)]
    times = {point: [] for point in points}
    for _ in range(repeats):
        for depth, interval in points:
            times[(depth, interval)].append(_serve_once(
                hw, dataset, requests, warm,
                depth=depth, trace_interval=interval,
            ))

    rows = []
    for depth in depths:
        base = times[(depth, None)]
        for interval in intervals:
            traced = times[(depth, interval)]
            rows.append({
                "depth": depth,
                "interval": interval,
                "wall_s": min(traced),
                "base_wall_s": min(base),
                "overhead": min(traced) / min(base) - 1.0,
                "median_overhead": statistics.median(
                    paired / b for paired, b in zip(traced, base)
                ) - 1.0,
            })
    return rows


def emit_tracing_overhead_sweep(rows):
    table_rows = []
    for r in rows:
        label = f"1/{r['interval']}"
        if r["interval"] == DEFAULT_TRACE_INTERVAL:
            label += " (default)"
        table_rows.append([
            r["depth"], label,
            f"{r['base_wall_s'] * 1e3:.1f} ms",
            f"{r['wall_s'] * 1e3:.1f} ms",
            f"{r['overhead']:+.1%}",
            f"{r['median_overhead']:+.1%}",
        ])
    emit("obs_trace_overhead", format_table(
        ["depth", "sampling", "untraced", "traced", "overhead",
         "median/round"],
        table_rows,
        title="Request tracing: wall-clock overhead vs sampling x depth",
    ))


def check_tracing_overhead_sweep(rows):
    """At the default sampling interval tracing costs < 5% wall clock.

    Gated on the smaller of the two estimators (see
    :func:`run_tracing_overhead_sweep`): the true cost must leak
    through *both* for the gate to trip, which is what distinguishes a
    real hot-loop regression from one noisy measurement window.
    """
    checked = 0
    for r in rows:
        if r["interval"] != DEFAULT_TRACE_INTERVAL:
            continue
        checked += 1
        overhead = min(r["overhead"], r["median_overhead"])
        assert overhead < TRACE_OVERHEAD_LIMIT, (
            f"tracing overhead {overhead:.1%} (best/best "
            f"{r['overhead']:.1%}, paired median "
            f"{r['median_overhead']:.1%}) at the default "
            f"1/{DEFAULT_TRACE_INTERVAL} sampling (depth {r['depth']}) "
            f"exceeds the {TRACE_OVERHEAD_LIMIT:.0%} budget"
        )
    assert checked, "sweep never measured the default sampling interval"


def test_tracing_overhead(hw, run_once):
    rows = run_once(
        run_tracing_overhead_sweep, hw,
        depths=(2,), intervals=(1, DEFAULT_TRACE_INTERVAL),
    )
    emit_tracing_overhead_sweep(rows)
    check_tracing_overhead_sweep(rows)


# ---------------------------------------------------------------------------
# Detection latency vs window size
# ---------------------------------------------------------------------------


def _serve_faulty(hw, dataset, window):
    """One outage run with the SLO engine attached; returns the engine."""
    outage_start = 0.4 * FAULT_HORIZON
    duration = OUTAGE_FRACTION * FAULT_HORIZON
    remote = RemoteParameterServer(
        dataset.table_specs(),
        injector=FaultInjector(FaultSchedule([
            ShardOutage(shard=s, start=outage_start, duration=duration)
            for s in range(NUM_SHARDS)
        ]), seed=17),
        retry_policy=RetryPolicy.naive(timeout=1e-3),
        breaker=None,
    )
    store = TieredParameterStore(
        dataset.table_specs(), hw, dram_capacity=1_200, remote=remote,
        degrade=DegradeConfig(policy="stale"),
    )
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    engine = default_serving_slos(FAULT_SLA)
    collector = WindowedCollector(
        window=window, sla_budget=FAULT_SLA, engine=engine,
    )
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=2,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        collector=collector,
    )
    requests = PoissonArrivals(
        dataset, FAULT_RATE, seed=5
    ).generate_until(FAULT_HORIZON)
    server.serve(requests)
    return engine, collector


def run_detection_vs_window(hw, windows=WINDOW_SIZES):
    """Time-to-detect / time-to-recover of one outage per window size."""
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
    )
    outage_start = 0.4 * FAULT_HORIZON
    outage_end = outage_start + OUTAGE_FRACTION * FAULT_HORIZON
    rows = []
    for window in windows:
        engine, collector = _serve_faulty(hw, dataset, window)
        rows.append({
            "window_s": window,
            "windows_closed": collector.closed_windows,
            "ttd_s": engine.time_to_detect(outage_start),
            "ttr_s": engine.time_to_recover(outage_end),
            "alerts": len(engine.alerts),
        })
    return rows


def emit_detection_vs_window(rows):
    table_rows = []
    for r in rows:
        table_rows.append([
            format_time(r["window_s"]), r["windows_closed"],
            "-" if r["ttd_s"] is None else format_time(r["ttd_s"]),
            "-" if r["ttr_s"] is None else format_time(r["ttr_s"]),
            r["alerts"],
        ])
    emit("obs_detection_window", format_table(
        ["window", "closed", "time-to-detect", "time-to-recover", "alerts"],
        table_rows,
        title=(
            "Burn-rate detection latency vs collector window "
            f"({OUTAGE_FRACTION:.0%} outage of a "
            f"{FAULT_HORIZON * 1e3:.0f} ms run)"
        ),
    ))


def check_detection_vs_window(rows):
    duration = OUTAGE_FRACTION * FAULT_HORIZON
    for r in rows:
        assert r["ttd_s"] is not None, r
        assert r["ttd_s"] < duration, r


def test_detection_vs_window(hw, run_once):
    rows = run_once(run_detection_vs_window, hw, windows=(2.5e-4, 1e-3))
    emit_detection_vs_window(rows)
    check_detection_vs_window(rows)


# ---------------------------------------------------------------------------
# Standalone smoke mode (CI)
# ---------------------------------------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sweeps with the same invariant checks",
    )
    args = parser.parse_args(argv)

    from repro import default_platform

    mode = "smoke" if args.smoke else "full"
    hw = default_platform()
    if args.smoke:
        results = run_overhead_sweep(hw, num_requests=8_000, repeats=5)
        trace_rows = run_tracing_overhead_sweep(
            hw, depths=(2,), intervals=(1, DEFAULT_TRACE_INTERVAL),
        )
        rows = run_detection_vs_window(hw, windows=(1e-3,))
    else:
        results = run_overhead_sweep(hw)
        trace_rows = run_tracing_overhead_sweep(hw)
        rows = run_detection_vs_window(hw)
    emit_overhead_sweep(results)
    check_overhead_sweep(results)
    emit_tracing_overhead_sweep(trace_rows)
    check_tracing_overhead_sweep(trace_rows)
    emit_detection_vs_window(rows)
    check_detection_vs_window(rows)
    print(f"\nobservability overhead sweep OK ({mode} mode)")


if __name__ == "__main__":
    main()
