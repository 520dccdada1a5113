"""Per-layer metrics of one traced pass (layer = ``src/repro/<module>``).

Counts and rates are read from public outputs produced *inside* the pass —
every ``ServingReport`` (with its registry delta and
``last_run.resource_busy``), the ``ClusterReport`` and each index probe's
``ProbeStats`` — collected by the tracer's capture hooks, so single-server
and cluster workloads are read the same way.  ``*.calls``, ``*.keys`` and
``*.self_s`` come from the spans.  Every pass is bit-identical, so the
traced pass's counts are pass 0's counts.

A metric a workload does not exercise is reported as 0: the whole list is
printed for every workload, and a zero row is how a bypassed layer shows.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from spans import SpanTracer
from workloads import SLA_S, Outcome

LAYERS = (
    "harness", "cluster", "serving", "core", "hashindex", "mempool", "tables",
    "multitier", "model", "refresh", "gpusim", "obs",
)


def p99_ms(latencies: np.ndarray) -> float:
    """Nearest-rank P99 in ms.  Shed requests carry ``inf`` and sort last,
    so the result is ``inf`` once 1 % of the requests were shed."""
    return float(np.percentile(latencies, 99, method="higher") * 1e3)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _caches(servable) -> list:
    """The flat caches behind a server or a router's live replicas."""
    if hasattr(servable, "replicas"):
        return [r.layer.cache for r in servable.replicas if r.alive]
    return [servable.scheme.cache]


def layer_metrics(
    tracer: SpanTracer,
    stems: Dict[str, dict],
    outcomes: List[Outcome],
    servables: list,
    rung_names: List[str],
) -> Dict[str, float]:
    """Every count-, rate- and span-derived per-layer metric of one pass.

    ``stems`` is ``tracer.stem_report()``; ``outcomes``/``servables`` are
    the traced pass's per-rung results and the objects that served them, in
    ``rung_names`` order.
    """
    serves = tracer.captured.get("serving.serve", [])
    reports = [value[0] for _, value in serves]
    snapshots = [r.metrics for r in reports] + [
        o.report.metrics for o in outcomes if o.cluster
    ]
    by_rung = dict(zip(rung_names, outcomes))
    ref, sat = by_rung["ref"], by_rung["sat"]
    sim_span = sum(o.span for o in outcomes)

    def stem(name: str, key: str) -> float:
        return stems.get(name, {}).get(key, 0)

    def total(name: str) -> float:
        return sum(s.total(name) for s in snapshots if s is not None)

    def layer_calls(layer: str) -> int:
        return sum(r["calls"] for r in stems.values() if r["layer"] == layer)

    m: Dict[str, float] = {
        f"{layer}.self_s": sum(
            r["self_s"] for r in stems.values() if r["layer"] == layer
        )
        for layer in LAYERS
    }

    # serving
    batches = sum(len(r.batch_sizes) for r in reports)
    m["serving.batches"] = batches
    m["serving.mean_batch_size"] = _ratio(
        sum(sum(r.batch_sizes) for r in reports), batches
    )
    m["serving.sim_span_s"] = sim_span
    m["serving.miss_table.calls"] = stem("serving.miss_table", "calls")
    m["serving.miss_table.self_s"] = stem("serving.miss_table", "self_s")
    m["serving.coalesced_keys"] = sum(r.coalesced_keys for r in reports)
    m["serving.p99_ms.lo"] = p99_ms(by_rung["lo"].latencies)
    m["serving.p99_ms.sat"] = p99_ms(sat.latencies)
    m["serving.sla_miss_frac.sat"] = float((sat.latencies > SLA_S).mean())

    # core
    hits = sum(r.hits for r in reports)
    misses = sum(r.misses for r in reports)
    m["core.query.calls"] = stem("core.query", "calls")
    m["core.hit_rate"] = _ratio(hits, hits + misses)
    m["core.unified_hit_rate"] = _ratio(
        sum(r.unified_hits for r in reports), misses
    )
    m["core.dedup_factor"] = _ratio(
        total("cache.lookups"), total("cache.unique_keys")
    )
    m["core.inserted"] = total("cache.inserted")
    m["core.evictions"] = total("cache.evictions")
    m["core.demotions"] = total("cache.demotions")
    m["core.updates.calls"] = stem("core.updates", "calls")
    m["core.updates.keys"] = stem("core.updates", "keys")
    m["core.updates.self_s"] = stem("core.updates", "self_s")

    # hashindex
    for op in ("lookup", "insert", "erase"):
        m[f"hashindex.{op}.calls"] = stem(f"hashindex.{op}", "calls")
        m[f"hashindex.{op}.self_s"] = stem(f"hashindex.{op}", "self_s")
    m["hashindex.lookup.keys"] = stem("hashindex.lookup", "keys")
    m["hashindex.insert.keys"] = stem("hashindex.insert", "keys")
    probes = np.array([
        value for op in ("lookup", "insert", "erase")
        for _, value in tracer.captured.get(f"hashindex.{op}", [])
    ], dtype=np.float64).reshape(-1, 3)
    keys, transactions, hops = probes.sum(axis=0)
    m["hashindex.transactions_per_key"] = _ratio(transactions, keys)
    m["hashindex.hops_per_key"] = _ratio(hops, keys)

    # mempool
    m["mempool.calls"] = layer_calls("mempool")
    m["mempool.rows_written"] = stem("mempool.write", "keys")
    m["mempool.rows_read"] = stem("mempool.read", "keys")
    pools = [c.pool.utilization for c in _caches(servables[-1])]
    m["mempool.utilization"] = float(np.mean(pools)) if pools else 0.0

    # tables / model / gpusim
    m["tables.query.calls"] = stem("tables.query", "calls")
    m["tables.keys"] = stem("tables.query", "keys")
    m["model.forward.calls"] = stem("model.forward", "calls")
    m["model.rows"] = stem("model.forward", "keys")
    m["model.gflop"] = sum(
        model.flops(size)
        for _, (report, _, model) in serves if model is not None
        for size in report.batch_sizes
    ) / 1e9
    m["gpusim.calls"] = layer_calls("gpusim")
    sat_tag = rung_names.index("sat")
    sat_runs = [value for tag, value in serves if tag == sat_tag]
    sat_span = sum(report.span for report, _, _ in sat_runs)
    for resource in ("host", "pcie", "gpu"):
        busy = sum(run.resource_busy[resource][0] for _, run, _ in sat_runs)
        m[f"gpusim.sim_{resource}_busy_frac"] = _ratio(busy, sat_span)

    # multitier / faults
    m["multitier.query.calls"] = stem("multitier.query", "calls")
    m["multitier.dram.calls"] = stem("multitier.dram", "calls")
    m["multitier.dram.self_s"] = stem("multitier.dram", "self_s")
    m["multitier.remote.calls"] = stem("multitier.remote", "calls")
    dram_hits = total("tier.dram_hits")
    m["multitier.dram_hit_rate"] = _ratio(
        dram_hits, dram_hits + total("tier.dram_misses")
    )
    m["multitier.remote_keys"] = total("tier.remote_keys")
    m["multitier.degraded_keys"] = total("tier.degraded_keys")
    for name in ("attempts", "retries", "hedges_fired", "failures",
                 "breaker_fast_fails"):
        m[f"faults.{name}"] = total(f"faults.{name}")

    # refresh
    m["refresh.run_idle.calls"] = stem("refresh.run_idle", "calls")
    for name in ("applied_keys", "applied_batches", "refreshed_keys",
                 "invalidated_keys"):
        m[f"refresh.{name}"] = total(f"refresh.{name}")
    m["refresh.apply_keys_per_sim_s"] = _ratio(
        m["refresh.applied_keys"], sim_span
    )
    if ref.cluster:
        lag = max(
            (s.get("version_lag", 0) for s in ref.report.per_replica.values()),
            default=0,
        )
    else:
        lag = ref.report.metrics.gauge("refresh.version_lag")
    m["refresh.final_version_lag"] = float(lag)

    # cluster
    m["cluster.serve.calls"] = stem("cluster.serve", "calls")
    m["cluster.plan.self_s"] = stem("cluster.plan", "self_s")
    m["cluster.replica.serve.calls"] = stem("cluster.replica.serve", "calls")
    m["cluster.recover.calls"] = stem("cluster.recover", "calls")
    m["cluster.recover.self_s"] = stem("cluster.recover", "self_s")
    for kind in ("primary", "failover", "hedge", "shed"):
        m[f"cluster.{kind}"] = 0
    m["cluster.failover_p99_ms"] = 0.0
    m["cluster.detect_ms"] = 0.0
    m["cluster.rejoin_ms"] = 0.0
    if ref.cluster:
        for outcome in outcomes:
            for kind, count in outcome.report.disposition_counts().items():
                m[f"cluster.{kind}"] += count
        failover = ref.report.latencies_for("failover")
        if len(failover):
            m["cluster.failover_p99_ms"] = float(
                np.percentile(failover, 99) * 1e3
            )
        if ref.report.episodes:
            episode = ref.report.episodes[0]
            m["cluster.detect_ms"] = (episode.detect_at - episode.start) * 1e3
            m["cluster.rejoin_ms"] = (episode.rejoin_at - episode.end) * 1e3

    m["obs.calls"] = layer_calls("obs")
    m["trace.spans"] = len(tracer.start)
    return m
