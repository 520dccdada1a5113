"""Robustness study: SLA attainment when a PS shard brows out.

The robustness analogue of the paper's Exp #1/#2 throughput-latency
study: drive open-loop Poisson traffic through Fleche over the §5 tiered
store while a :class:`~repro.faults.schedule.ShardOutage` covers a sweep
of fractions of the run, and compare retry policies at equal offered
load:

* ``naive``      — the seed's model: wait out the timeout, retry once;
* ``retry``      — capped exponential backoff, per-attempt timeouts;
* ``resilient``  — retry + hedged requests + per-shard circuit breaker.

All policies degrade to ``stale`` vectors when the budget is exhausted,
so the comparison isolates how much time each policy *wastes* on a dead
shard rather than whether it eventually serves.

Two refresh-subsystem studies ride along: an
:class:`~repro.faults.schedule.UpdateLogOutage` run proving the
staleness SLO burn-rate alert detects a stuck update stream (with
measured time-to-detect / time-to-recover), and a crash-recovery run
proving a replica killed mid-stream converges — via snapshot + log
replay — to the exact cache contents of a replica that never died.
"""

from repro import FlecheConfig
from repro.bench.harness import alert_timing, fault_window, shard_outage_events
from repro.bench.reporting import emit, format_table, format_time
from repro.obs import (
    WindowedCollector,
    default_refresh_slos,
    default_serving_slos,
)
from repro.core.workflow import FlecheEmbeddingLayer
from repro.faults import (
    BreakerConfig,
    DegradeConfig,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    UpdateLogOutage,
)
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.refresh import (
    RefreshScheduler,
    UpdateLog,
    UpdatePublisher,
    UpdateSubscriber,
    fingerprint,
)
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.serving.server import InferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

US = 1e-6
SLA_BUDGET = 2.5e-3
RATE = 40_000.0
HORIZON = 0.08  # seconds of offered load
OUTAGE_FRACTIONS = (0.0, 0.1, 0.2, 0.4)
NUM_SHARDS = 4

POLICIES = {
    "naive": dict(
        retry_policy=RetryPolicy.naive(timeout=1e-3),
        breaker=None,
    ),
    "retry": dict(
        retry_policy=RetryPolicy(
            max_attempts=3, attempt_timeout=400 * US,
            backoff_base=50 * US, backoff_cap=400 * US, jitter=0.2,
        ),
        breaker=None,
    ),
    "resilient": dict(
        retry_policy=RetryPolicy(
            max_attempts=3, attempt_timeout=400 * US,
            backoff_base=50 * US, backoff_cap=400 * US, jitter=0.2,
            hedge_delay=150 * US,
        ),
        breaker=BreakerConfig(
            failure_threshold=0.5, window=8, min_samples=4,
            cooldown=5_000 * US,
        ),
    ),
}


def _serve_under_outage(
    hw, dataset, outage_fraction, policy, depth=None, collector=None
):
    """Serve one faulty stream; ``depth`` switches to the pipelined loop.

    ``collector`` (a :class:`~repro.obs.WindowedCollector`, usually with
    an SLO engine attached) turns the run into windowed series so
    burn-rate alerts can time-stamp the outage's detection and recovery.
    """
    start, duration, _ = fault_window(HORIZON, 0.4, outage_fraction)
    events = shard_outage_events(NUM_SHARDS, start, duration)
    remote = RemoteParameterServer(
        dataset.table_specs(),
        injector=FaultInjector(FaultSchedule(events), seed=17),
        **POLICIES[policy],
    )
    store = TieredParameterStore(
        dataset.table_specs(), hw, dram_capacity=1_200, remote=remote,
        degrade=DegradeConfig(policy="stale"),
    )
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    batching = BatchingPolicy(max_batch_size=64, max_delay=5e-4)
    if depth is None:
        server = InferenceServer(
            dataset, layer, hw, policy=batching, collector=collector,
        )
    else:
        server = PipelinedInferenceServer(
            dataset, layer, hw, policy=batching, depth=depth,
            collector=collector,
        )
    requests = PoissonArrivals(dataset, RATE, seed=5).generate_until(HORIZON)
    return server.serve(requests)


def test_serving_fault_sweep(hw, run_once):
    def experiment():
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
        )
        table = {}
        for fraction in OUTAGE_FRACTIONS:
            for policy in POLICIES:
                report = _serve_under_outage(hw, dataset, fraction, policy)
                table[(fraction, policy)] = report
        return table

    table = run_once(experiment)
    rows = []
    for fraction in OUTAGE_FRACTIONS:
        for policy in POLICIES:
            report = table[(fraction, policy)]
            faulty = (
                report.sla_attainment(SLA_BUDGET, window="faulty")
                if fraction > 0 else float("nan")
            )
            rows.append([
                f"{fraction:.0%}", policy,
                f"{report.sla_attainment(SLA_BUDGET):.1%}",
                "-" if fraction == 0 else f"{faulty:.1%}",
                format_time(report.p99_latency),
                report.degraded_requests,
                report.retries,
                report.hedges_fired,
                format_time(report.breaker_open_time),
            ])
    report_text = format_table(
        ["outage", "policy", f"SLA@{SLA_BUDGET * 1e3:.1f}ms", "SLA(fault)",
         "P99", "degraded", "retries", "hedges", "breaker open"],
        rows,
        title=(
            "Serving under PS-shard outage: SLA attainment by retry "
            f"policy ({RATE:,.0f}/s offered, stale degradation)"
        ),
    )
    emit("serving_faults", report_text)

    # Fault-free runs are identical across policies (the resilient path
    # is a strict superset of the happy path).
    base = {p: table[(0.0, p)].sla_attainment(SLA_BUDGET) for p in POLICIES}
    assert base["naive"] == base["resilient"] == base["retry"]

    # The headline claim: with a 20% outage, retry+hedge+breaker with
    # stale degradation strictly beats the naive retry-once model.
    for fraction in OUTAGE_FRACTIONS[1:]:
        naive = table[(fraction, "naive")].sla_attainment(SLA_BUDGET)
        resilient = table[(fraction, "resilient")].sla_attainment(SLA_BUDGET)
        assert resilient > naive
    assert table[(0.2, "resilient")].breaker_open_time > 0.0


def test_serving_fault_sweep_pipelined(hw, run_once):
    """The resilient-vs-naive gap survives inter-batch overlap.

    Same outage sweep, served by the depth-2 pipelined loop: retry /
    hedge / breaker accounting and the degraded-request attribution must
    stay correct when batches interleave on the shared host thread.
    """
    fraction = 0.2

    def experiment():
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
        )
        table = {}
        for policy in ("naive", "resilient"):
            for frac in (0.0, fraction):
                table[(frac, policy)] = _serve_under_outage(
                    hw, dataset, frac, policy, depth=2,
                )
        return table

    table = run_once(experiment)
    rows = []
    for (frac, policy), report in sorted(table.items()):
        rows.append([
            f"{frac:.0%}", policy,
            f"{report.sla_attainment(SLA_BUDGET):.1%}",
            format_time(report.p99_latency),
            report.degraded_requests, report.retries, report.hedges_fired,
        ])
    emit("serving_faults_pipelined", format_table(
        ["outage", "policy", f"SLA@{SLA_BUDGET * 1e3:.1f}ms", "P99",
         "degraded", "retries", "hedges"],
        rows,
        title=(
            "Pipelined serving (depth 2) under PS-shard outage "
            f"({RATE:,.0f}/s offered, stale degradation)"
        ),
    ))

    # Fault-free runs are identical across policies, and the resilient
    # policy still strictly beats naive under the outage.
    assert (
        table[(0.0, "naive")].sla_attainment(SLA_BUDGET)
        == table[(0.0, "resilient")].sla_attainment(SLA_BUDGET)
    )
    naive = table[(fraction, "naive")]
    resilient = table[(fraction, "resilient")]
    assert resilient.sla_attainment(SLA_BUDGET) > naive.sla_attainment(
        SLA_BUDGET
    )
    # Degraded service under outage is attributed on both paths.
    assert naive.degraded_requests > 0
    assert resilient.degraded_requests > 0


# ---------------------------------------------------------------------------
# SLO burn-rate alerting: time-to-detect / time-to-recover under outage
# ---------------------------------------------------------------------------

#: Collector window for the detection study (simulated seconds).
DETECT_WINDOW = 1e-3


def run_detection_sweep(hw, fractions=(0.1, 0.2, 0.4), policies=None):
    """Outage sweep with the SLO engine attached; returns detection rows.

    For every (outage fraction, retry policy) pair the serving run is
    re-executed with a :class:`~repro.obs.WindowedCollector` driving the
    default serving SLOs; each row records the burn-rate alerts'
    time-to-detect (first alert fired at/after outage onset) and
    time-to-recover (last alert resolved after the outage cleared).
    """
    policies = list(POLICIES) if policies is None else list(policies)
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
    )
    results = []
    for fraction in fractions:
        outage_start, outage_duration, outage_end = fault_window(
            HORIZON, 0.4, fraction
        )
        for policy in policies:
            engine = default_serving_slos(SLA_BUDGET)
            collector = WindowedCollector(
                window=DETECT_WINDOW, sla_budget=SLA_BUDGET, engine=engine,
            )
            _serve_under_outage(
                hw, dataset, fraction, policy, collector=collector,
            )
            timing = alert_timing(engine.alerts, outage_start, outage_end)
            results.append({
                "outage_fraction": fraction,
                "policy": policy,
                "outage_start_s": outage_start,
                "outage_duration_s": outage_duration,
                **timing,
            })
    return results


def emit_detection_sweep(results):
    rows = []
    for r in results:
        rows.append([
            f"{r['outage_fraction']:.0%}", r["policy"],
            format_time(r["outage_duration_s"]),
            "-" if r["ttd_s"] is None else format_time(r["ttd_s"]),
            "-" if r["ttr_s"] is None else format_time(r["ttr_s"]),
            r["alerts"],
        ])
    emit("serving_fault_detection", format_table(
        ["outage", "policy", "duration", "time-to-detect",
         "time-to-recover", "alerts"],
        rows,
        title=(
            "SLO burn-rate alerting under PS-shard outage "
            f"({DETECT_WINDOW * 1e3:.0f} ms windows, "
            f"SLA {SLA_BUDGET * 1e3:.1f} ms)"
        ),
    ))


def check_detection_sweep(results):
    """Acceptance: every outage is detected within its own duration and
    every alert resolves after recovery."""
    for r in results:
        assert r["ttd_s"] is not None, r
        assert r["ttd_s"] < r["outage_duration_s"], r
        assert not r["unresolved"], r
        assert r["ttr_s"] is not None, r


def test_fault_detection_latency(hw, run_once):
    results = run_once(run_detection_sweep, hw, fractions=(0.2, 0.4))
    emit_detection_sweep(results)
    check_detection_sweep(results)


# ---------------------------------------------------------------------------
# Model-refresh resilience: staleness alerting under a stuck update stream,
# and crash recovery via snapshot + log replay
# ---------------------------------------------------------------------------

#: Offered load for the refresh studies: busy enough to be a real serving
#: run, idle enough that the bounded refresher normally keeps lag near 0.
REFRESH_RATE = 40_000.0
REFRESH_ROUNDS = 40
REFRESH_KEYS_PER_ROUND = 64
REFRESH_QUANTUM = 512
#: Version-lag budget handed to the collector: a window closing with the
#: replica more than this many model versions behind counts as stale.
STALENESS_BUDGET = 2.0


def _make_refresh_replica(hw, dataset, collector=None, warm=None):
    """One pipelined serving replica over a plain (non-tiered) store."""
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    server = PipelinedInferenceServer(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        depth=2, collector=collector,
    )
    if warm is not None:
        server.serve(warm)
    return server, layer


def _delta_trainer(dataset, seed=11):
    return EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in dataset.table_specs()],
        [spec.dim for spec in dataset.table_specs()],
        keys_per_round=REFRESH_KEYS_PER_ROUND, seed=seed,
    )


def run_refresh_outage_study(hw, outage_fraction=0.3, rounds=REFRESH_ROUNDS):
    """Serve with a live update stream while the log goes dark mid-run.

    The trainer publishes ``rounds`` versions evenly across the horizon;
    an :class:`UpdateLogOutage` covers ``outage_fraction`` of it.  The
    replica keeps serving, its version lag climbs past the staleness
    budget, the ``staleness-fast`` burn-rate rule fires, and once the log
    returns the idle-slot refresher catches up and the alert resolves —
    all stamped in simulated time, so TTD/TTR are exact.
    """
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
    )
    outage_start = 0.35 * HORIZON
    outage_duration = outage_fraction * HORIZON
    outage_end = outage_start + outage_duration
    schedule = FaultSchedule([
        UpdateLogOutage(start=outage_start, duration=outage_duration),
    ])
    log = UpdateLog(retention=4096, schedule=schedule)
    engine = default_refresh_slos(SLA_BUDGET)
    collector = WindowedCollector(
        window=DETECT_WINDOW, sla_budget=SLA_BUDGET, engine=engine,
        staleness_versions=STALENESS_BUDGET,
    )
    server, layer = _make_refresh_replica(hw, dataset, collector=collector)
    publisher = UpdatePublisher(log, max_batch_keys=REFRESH_QUANTUM)
    publisher.bind_observability(server.obs)
    trainer = _delta_trainer(dataset)
    for i in range(rounds):
        publisher.drain(trainer, now=HORIZON * (i + 1) / (rounds + 1))
    subscriber = UpdateSubscriber(log, layer.cache, host_store=layer.store)
    subscriber.bind_observability(server.obs)
    server.refresher = RefreshScheduler(
        subscriber, hw, quantum_keys=REFRESH_QUANTUM, schedule=schedule,
    )
    requests = PoissonArrivals(
        dataset, REFRESH_RATE, seed=5,
    ).generate_until(HORIZON)
    report = server.serve(requests)

    stale_hist = engine.history("staleness-fast")
    timing = alert_timing(stale_hist, outage_start, outage_end)
    return {
        "outage_start_s": outage_start,
        "outage_duration_s": outage_duration,
        "published_keys": log.total_keys,
        "applied_keys": int(report.metrics.total("refresh.applied_keys")),
        "outage_polls": int(report.metrics.total("refresh.outage_polls")),
        "final_version_lag": subscriber.version_lag(HORIZON),
        "ttd_s": timing["ttd_s"],
        "ttr_s": timing["ttr_s"],
        "early_alerts": timing["early_alerts"],
        "stale_alerts": timing["alerts"],
        "unresolved": [a.rule for a in engine.firing],
        "sla_attainment": report.sla_attainment(SLA_BUDGET),
    }


def emit_refresh_outage(result):
    rows = [[
        format_time(result["outage_duration_s"]),
        "-" if result["ttd_s"] is None else format_time(result["ttd_s"]),
        "-" if result["ttr_s"] is None else format_time(result["ttr_s"]),
        result["stale_alerts"],
        f"{result['applied_keys']:,}/{result['published_keys']:,}",
        result["final_version_lag"],
        f"{result['sla_attainment']:.1%}",
    ]]
    emit("refresh_staleness_detection", format_table(
        ["log outage", "time-to-detect", "time-to-recover", "alerts",
         "applied/published", "final lag", f"SLA@{SLA_BUDGET * 1e3:.1f}ms"],
        rows,
        title=(
            "Staleness SLO burn-rate alerting under an update-log outage "
            f"({REFRESH_RATE:,.0f}/s offered, "
            f"lag budget {STALENESS_BUDGET:.0f} versions)"
        ),
    ))


def check_refresh_outage(result):
    """Acceptance: the staleness alert fires only during the outage,
    within its duration, and resolves once the replica catches up."""
    assert result["early_alerts"] == 0, result
    assert result["ttd_s"] is not None, result
    assert result["ttd_s"] < result["outage_duration_s"], result
    assert result["ttr_s"] is not None, result
    assert not result["unresolved"], result
    assert result["outage_polls"] > 0, result
    assert result["applied_keys"] > 0, result
    assert result["final_version_lag"] <= STALENESS_BUDGET, result


def test_refresh_staleness_detection(hw, run_once):
    result = run_once(run_refresh_outage_study, hw)
    emit_refresh_outage(result)
    check_refresh_outage(result)


def run_recovery_equivalence(hw, rounds=12, kill_after_rounds=5):
    """Kill a replica mid-stream; snapshot + replay must converge.

    Replica A consumes the whole update stream uninterrupted.  Replica B
    — warmed identically — dies after ``kill_after_rounds`` published
    versions, leaving only its stamped cache snapshot.  A replacement
    replica restores the snapshot into a cold cache and replays the log
    from the stamped offset; its fingerprint (flat key -> vector bytes)
    must equal replica A's exactly.
    """
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
    )
    log = UpdateLog(retention=4096)
    publisher = UpdatePublisher(log, max_batch_keys=256)
    trainer = _delta_trainer(dataset)
    for i in range(rounds):
        publisher.drain(trainer, now=float(i + 1))
    horizon = float(rounds + 1)
    warm = PoissonArrivals(dataset, REFRESH_RATE, seed=3).generate(600)

    # Replica A: never interrupted.
    _, layer_a = _make_refresh_replica(hw, dataset, warm=warm)
    sub_a = UpdateSubscriber(log, layer_a.cache, host_store=layer_a.store)
    sub_a.catch_up(horizon)
    fp_a = fingerprint(layer_a.cache)

    # Replica B: killed mid-stream; only its last snapshot survives.
    _, layer_b = _make_refresh_replica(hw, dataset, warm=warm)
    sub_b = UpdateSubscriber(log, layer_b.cache, host_store=layer_b.store)
    sub_b.catch_up(float(kill_after_rounds) + 0.5)
    snap = sub_b.snapshot()
    stale_at_kill = fingerprint(layer_b.cache) != fp_a
    del layer_b, sub_b  # the crash

    # Replacement: cold cache + snapshot restore + log replay.
    _, layer_c = _make_refresh_replica(hw, dataset)
    sub_c = UpdateSubscriber.from_snapshot(
        snap, layer_c.cache, log, host_store=layer_c.store,
    )
    replayed = sub_c.catch_up(horizon)

    fp_c = fingerprint(layer_c.cache)
    return {
        "entries": len(fp_a),
        "killed_at_offset": snap.log_offset,
        "killed_at_version": snap.model_version,
        "final_version": sub_a.applied_version,
        "replayed_batches": replayed,
        "stale_at_kill": stale_at_kill,
        "converged": fp_a == fp_c,
        "offsets_match": sub_a.applied_offset == sub_c.applied_offset,
        "versions_match": sub_a.applied_version == sub_c.applied_version,
    }


def emit_recovery_equivalence(result):
    rows = [[
        result["entries"],
        f"v{result['killed_at_version']} @ {result['killed_at_offset']}",
        f"v{result['final_version']}",
        result["replayed_batches"],
        "yes" if result["stale_at_kill"] else "no",
        "yes" if result["converged"] else "NO",
    ]]
    emit("refresh_recovery", format_table(
        ["cache entries", "killed at", "final", "replayed batches",
         "stale at kill", "converged"],
        rows,
        title=(
            "Crash recovery: snapshot + log replay vs an uninterrupted "
            "replica (cache fingerprint equality)"
        ),
    ))


def check_recovery_equivalence(result):
    """Acceptance: the restored replica's cache is bit-identical to the
    uninterrupted replica's, and the replay actually did work."""
    assert result["entries"] > 0, result
    assert result["replayed_batches"] > 0, result
    assert result["stale_at_kill"], result
    assert result["converged"], result
    assert result["offsets_match"], result
    assert result["versions_match"], result


def test_refresh_recovery_equivalence(hw, run_once):
    result = run_once(run_recovery_equivalence, hw)
    emit_recovery_equivalence(result)
    check_recovery_equivalence(result)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced detection sweep with the same invariant checks",
    )
    args = parser.parse_args(argv)

    from repro import default_platform

    mode = "smoke" if args.smoke else "full"
    hw = default_platform()
    if args.smoke:
        results = run_detection_sweep(
            hw, fractions=(0.2,), policies=("naive", "resilient"),
        )
    else:
        results = run_detection_sweep(hw)
    emit_detection_sweep(results)
    check_detection_sweep(results)

    outage = run_refresh_outage_study(hw)
    emit_refresh_outage(outage)
    check_refresh_outage(outage)

    recovery = run_recovery_equivalence(hw, rounds=8 if args.smoke else 12)
    emit_recovery_equivalence(recovery)
    check_recovery_equivalence(recovery)

    print(f"\nfault detection sweep OK ({mode} mode)")


if __name__ == "__main__":
    main()
