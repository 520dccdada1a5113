"""Observability cost study: collector and request-tracing overhead on
the host wall clock.

An observed run builds one :class:`~repro.obs.record.ServingRecord`
(one row per batch: its instants, stages and registry delta) and every
observer reads it when the run ends; an unobserved run builds none.
Both studies time the record plus its reader on the *host* wall clock,
even though what they compute lives on the simulated clock.

1. **What does the collector cost?**  The sweep serves the same
   pipelined request stream with no observer and with collectors at
   several window sizes, and reports the wall-clock overhead; at the
   default window it must stay under :data:`OVERHEAD_LIMIT` (5%) of
   serving throughput.

2. **What does request tracing cost?**  The tracer materializes full
   traces from the record only for the sampled set, so its cost should
   track the head-sampling interval, not the request count.  The tracing sweep pairs traced and
   untraced runs across sampling interval x pipeline depth and reports
   the median wall-clock ratio; at the default interval it must stay
   under :data:`TRACE_OVERHEAD_LIMIT` (5%).

Runs standalone: ``python benchmarks/bench_obs_overhead.py --smoke``.
What window size buys in detection latency is on the simulated clock,
so it is a row of the claims table (``benchmarks/claims.py``).
"""

import gc
import statistics
import time

from repro import FlecheConfig
from repro.bench.reporting import emit, format_table
from repro.core.workflow import FlecheEmbeddingLayer
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
    )
    if collector is not None:
        server.observers.append(collector)
    server.serve(warm)
    if trace_interval is not None:
        server.observers.append(RequestTracer(TraceConfig(
            head_interval=trace_interval, sla_budget=SLA_BUDGET,
        )))
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
    else:
        results = run_overhead_sweep(hw)
        trace_rows = run_tracing_overhead_sweep(hw)
    emit_overhead_sweep(results)
    check_overhead_sweep(results)
    emit_tracing_overhead_sweep(trace_rows)
    check_tracing_overhead_sweep(trace_rows)
    print(f"\nobservability overhead sweep OK ({mode} mode)")


if __name__ == "__main__":
    main()
