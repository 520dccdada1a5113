"""Refresh study: update-apply throughput vs the serving latency SLA.

The refresh scheduler interleaves model-update quanta into the serving
loop's idle device time, so the trade-off the subsystem exists to manage
is directly measurable: sweep the update quantum (keys a replica may
ingest per idle slot) against the offered request rate and record, per
cell, the SLA attainment and the sustained apply rate.  The invariant
the design promises — at the reference load, refresh interleaving holds
the 2 ms SLA within 2 points of the no-refresh baseline while sustaining
a nonzero apply rate — is asserted here.

Machine-readable results land in ``benchmarks/results/BENCH_refresh.json``.
Runs standalone too: ``python benchmarks/bench_refresh.py --smoke`` is
the reduced CI sweep with the same invariant checks; the tracked file is
its pinned output (``tests/test_pinned_payloads.py`` requires equality).
"""

from repro import DeepCrossNetwork, FlecheConfig
from repro.bench.reporting import emit, emit_json, format_table, format_time
from repro.core.workflow import FlecheEmbeddingLayer
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.refresh import (
    RefreshScheduler,
    UpdateLog,
    UpdatePublisher,
    UpdateSubscriber,
)
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

SLA_BUDGET = 2e-3
#: Offered request rates swept against the update quantum.  The middle
#: rate is the *reference load* of the acceptance criterion: busy enough
#: that refresh interleaving could plausibly hurt, idle enough that a
#: bounded scheduler has slots to fill.  The top rate saturates the
#: pipeline — its zero-apply cells are the point: idle-bounded refresh
#: yields completely to serving under overload (staleness then grows,
#: which is the SLO's job to surface, not the scheduler's to prevent).
RATES = (200_000, 400_000, 800_000)
REFERENCE_RATE = 400_000
QUANTA = (128, 512, 2048)
REFERENCE_QUANTUM = 512
NUM_REQUESTS = 3_000
#: Trainer rounds published across the serving horizon per cell.
ROUNDS = 12
KEYS_PER_ROUND = 192

DATASET_KW = dict(num_tables=8, corpus_size=20_000, alpha=-1.2, dim=32)


def _build_workload(num_requests, rate):
    dataset = uniform_tables_spec(**DATASET_KW)
    warm = PoissonArrivals(dataset, 200_000.0, seed=1).generate(800)
    reqs = PoissonArrivals(dataset, float(rate), seed=2).generate(
        num_requests
    )
    return dataset, warm, reqs


def _make_server(hw, dataset, warm):
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    model = DeepCrossNetwork(
        num_tables=dataset.num_tables, embedding_dim=dataset.dim
    )
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=2,
        policy=BatchingPolicy(max_batch_size=512, max_delay=5e-4),
        model=model, include_dense=True,
    )
    server.serve(warm)
    return server, layer


def _attach_refresher(server, layer, hw, quantum, horizon, rounds):
    """Publish ``rounds`` trainer rounds across ``horizon`` and wire a
    subscriber + scheduler into ``server``; returns the scheduler.

    The trainer seed is fixed, so every cell consumes the *same* update
    stream — cells differ only in how much of it fits the idle slots.
    """
    dataset_dims = [spec.dim for spec in layer.store.specs]
    corpus = [spec.corpus_size for spec in layer.store.specs]
    log = UpdateLog(retention=4096)
    publisher = UpdatePublisher(log, max_batch_keys=quantum)
    publisher.bind_observability(server.obs)
    trainer = EmbeddingDeltaTrainer(
        corpus, dataset_dims, keys_per_round=KEYS_PER_ROUND, seed=7,
    )
    for i in range(rounds):
        publisher.drain(trainer, now=horizon * (i + 1) / (rounds + 1))
    subscriber = UpdateSubscriber(log, layer.cache, host_store=layer.store)
    subscriber.bind_observability(server.obs)
    refresher = RefreshScheduler(subscriber, hw, quantum_keys=quantum)
    server.refresher = refresher
    return refresher


def _summarise(report, refresher, log_total_keys):
    applied = (
        int(report.metrics.total("refresh.applied_keys"))
        if report.metrics is not None else 0
    )
    return {
        "sla_attainment": report.sla_attainment(SLA_BUDGET),
        "p99_s": report.p99_latency,
        "throughput_rps": report.throughput,
        "applied_keys": applied,
        "published_keys": log_total_keys,
        "apply_rate_keys_s": applied / report.span if report.span else 0.0,
        "refresh_busy_s": refresher.busy_time if refresher else 0.0,
    }


def run_refresh_sweep(hw, rates=RATES, quanta=QUANTA,
                      num_requests=NUM_REQUESTS, rounds=ROUNDS):
    """Sweep (rate x quantum) plus a no-refresh baseline per rate.

    Returns ``(cells, baselines)``: per-cell summaries keyed
    ``(rate, quantum)`` and per-rate no-refresh summaries.
    """
    cells = {}
    baselines = {}
    for rate in rates:
        dataset, warm, reqs = _build_workload(num_requests, rate)
        horizon = reqs[-1].arrival_time
        server, _ = _make_server(hw, dataset, warm)
        baselines[rate] = _summarise(server.serve(reqs), None, 0)
        for quantum in quanta:
            server, layer = _make_server(hw, dataset, warm)
            refresher = _attach_refresher(
                server, layer, hw, quantum, horizon, rounds,
            )
            report = server.serve(reqs)
            cells[(rate, quantum)] = _summarise(
                report, refresher, refresher.subscriber.log.total_keys,
            )
    return cells, baselines


def check_refresh_sweep(cells, baselines,
                        reference=(REFERENCE_RATE, REFERENCE_QUANTUM)):
    """The acceptance invariants (shared by pytest and --smoke)."""
    rate, quantum = reference
    cell = cells[reference]
    base = baselines[rate]
    # The SLA holds within 2 points of the no-refresh baseline ...
    assert cell["sla_attainment"] >= base["sla_attainment"] - 0.02, (
        cell, base,
    )
    # ... while a nonzero update stream is actually being applied.
    assert cell["applied_keys"] > 0, cell
    assert cell["apply_rate_keys_s"] > 0, cell
    # Idle-bounded refresh never costs more than 2 SLA points anywhere.
    for (r, q), c in cells.items():
        assert c["sla_attainment"] >= baselines[r]["sla_attainment"] - 0.02, (
            (r, q), c, baselines[r],
        )


def emit_refresh_sweep(cells, baselines, rates=RATES, quanta=QUANTA):
    """Text table + BENCH_refresh.json from the sweep summaries."""
    rows = []
    payload_cells = {}
    for rate in rates:
        base = baselines[rate]
        rows.append([
            f"{rate:,}/s", "no refresh", f"{base['sla_attainment']:.1%}",
            format_time(base["p99_s"]), "-", "-",
        ])
        for quantum in quanta:
            cell = cells[(rate, quantum)]
            payload_cells[f"{rate}x{quantum}"] = cell
            rows.append([
                f"{rate:,}/s", f"quantum {quantum}",
                f"{cell['sla_attainment']:.1%}", format_time(cell["p99_s"]),
                f"{cell['applied_keys']:,}",
                f"{cell['apply_rate_keys_s'] / 1e3:.0f} K/s",
            ])
    report = format_table(
        ["offered load", "refresh", f"SLA@{SLA_BUDGET * 1e3:.0f}ms", "P99",
         "applied keys", "apply rate"],
        rows,
        title="Model refresh: apply throughput vs serving SLA "
              "(quantum x rate sweep, pipelined depth 2)",
    )
    emit("refresh_sweep", report)
    artifact = {
        "sla_budget_s": SLA_BUDGET,
        "reference_rate_rps": REFERENCE_RATE,
        "reference_quantum": REFERENCE_QUANTUM,
        "rates": list(rates),
        "quanta": list(quanta),
        "baselines": {str(rate): s for rate, s in baselines.items()},
        "cells": payload_cells,
    }
    emit_json("BENCH_refresh", artifact)


def test_refresh_sla_tradeoff(hw, run_once):
    cells, baselines = run_once(run_refresh_sweep, hw)
    emit_refresh_sweep(cells, baselines)
    check_refresh_sweep(cells, baselines)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced quantum x rate sweep with the same invariant checks",
    )
    args = parser.parse_args(argv)

    from repro import default_platform

    mode = "smoke" if args.smoke else "full"
    hw = default_platform()
    if args.smoke:
        rates = (REFERENCE_RATE, 800_000)
        quanta = (128, REFERENCE_QUANTUM)
        sweep_kwargs = dict(
            rates=rates, quanta=quanta, num_requests=1_200, rounds=8,
        )
    else:
        rates, quanta = RATES, QUANTA
        sweep_kwargs = dict()
    cells, baselines = run_refresh_sweep(hw, **sweep_kwargs)
    emit_refresh_sweep(cells, baselines, rates=rates, quanta=quanta)
    check_refresh_sweep(cells, baselines)
    print(f"\nrefresh sweep OK ({mode} mode)")


if __name__ == "__main__":
    main()
