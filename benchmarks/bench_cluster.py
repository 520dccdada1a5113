"""Cluster-scale serving: replica x policy sweep and the kill/recover drill.

The headline chaos drill for the :mod:`repro.cluster` subsystem: N
cache-equipped replicas behind the health-checked router, with the
replica that owns the Zipf hot head killed mid-run.  The routed cluster
must hold its SLA@2ms while the victim is down — failing over via the
replicated hot head — and the same schedule replayed through an
*unrouted* cluster (no failover: the victim's traffic is shed until the
process restarts and replays the log) shows what that fault costs
without a router.  Alert timing (time-to-detect / time-to-recover, zero
early alerts), failover latency, post-rejoin convergence to the version
frontier, and byte-identical replay from ``(schedule, seed)`` are all
asserted, not just reported.

A smaller straggler study exercises cross-replica hedging under a
:class:`~repro.faults.schedule.ReplicaSlowdown`, and a fault-free
replica-count x routing-policy sweep sizes the cluster.

Runs standalone too: ``python benchmarks/bench_cluster.py --smoke`` is
the CI entry point; the tracked ``BENCH_cluster.json`` is its pinned
output (``tests/test_pinned_payloads.py`` requires equality).
"""


from repro.bench.harness import (
    alert_timing,
    canonical_json,
    emit_rootcause,
    fault_window,
    payload_digest,
)
from repro.bench.reporting import (
    emit, emit_json, format_table, format_time,
)
from repro.cluster import (
    POLICY_NAMES, ClusterConfig, ClusterRouter, hot_head_victim,
)
from repro.faults import (
    BreakerConfig,
    FaultSchedule,
    ReplicaCrash,
    ReplicaSlowdown,
)
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.obs.reqtrace import TraceConfig
from repro.refresh import UpdateLog, UpdatePublisher
from repro.serving.arrivals import PoissonArrivals
from repro.workloads.synthetic import uniform_tables_spec

US = 1e-6
#: The drill's SLA budget (acceptance: SLA@2ms >= 90% with a replica down).
SLA_BUDGET = 2e-3
#: Cluster-scale offered load for the full drill (requests/second).
CLUSTER_RATE = 160_000.0
HORIZON = 0.08
NUM_REPLICAS = 4
HOT_KEYS = 256
ARRIVAL_SEED = 5
REFRESH_ROUNDS = 40
REFRESH_KEYS_PER_ROUND = 64
REFRESH_QUANTUM = 512

#: Per-replica breaker for the drill: opens after a handful of lost
#: dispatches so the undetected-dead window stops paying the timeout.
DRILL_BREAKER = BreakerConfig(
    failure_threshold=0.5, window=8, min_samples=4, cooldown=5_000 * US,
)


def _dataset(num_tables=4, corpus=20_000, dim=16):
    return uniform_tables_spec(
        num_tables=num_tables, corpus_size=corpus, alpha=-1.2, dim=dim,
    )


def _publish_rounds(dataset, horizon, rounds=REFRESH_ROUNDS):
    """A shared update log with ``rounds`` versions spread over the run."""
    log = UpdateLog(retention=1_000_000)
    publisher = UpdatePublisher(log, max_batch_keys=REFRESH_QUANTUM)
    trainer = EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in dataset.table_specs()],
        [spec.dim for spec in dataset.table_specs()],
        keys_per_round=REFRESH_KEYS_PER_ROUND, seed=11,
    )
    for i in range(rounds):
        publisher.drain(trainer, now=horizon * (i + 1) / (rounds + 1))
    return log


# ---------------------------------------------------------------------------
# Fault-free sweep: replica count x routing policy
# ---------------------------------------------------------------------------

def run_policy_sweep(
    hw,
    replica_counts=(2, 4, 8),
    policies=POLICY_NAMES,
    rate=CLUSTER_RATE,
    horizon=HORIZON,
):
    """Fault-free cells: how each policy scales with replica count."""
    dataset = _dataset()
    requests = PoissonArrivals(
        dataset, rate, seed=ARRIVAL_SEED,
    ).generate_until(horizon)
    cells = {}
    for count in replica_counts:
        for policy in policies:
            router = ClusterRouter(
                dataset, hw,
                ClusterConfig(
                    num_replicas=count, policy=policy, hot_keys=HOT_KEYS,
                ),
                update_log=_publish_rounds(dataset, horizon),
                warm_seed=ARRIVAL_SEED,
            )
            report = router.serve(requests)
            counts = report.disposition_counts()
            cells[f"{policy}x{count}"] = {
                "replicas": count,
                "policy": policy,
                "requests": len(requests),
                "served": report.served,
                "shed": report.shed,
                "failovers": counts["failover"],
                "sla_attainment": report.sla_attainment(SLA_BUDGET),
                "p50_s": report.percentile(50),
                "p99_s": report.percentile(99),
            }
    return cells


def check_policy_sweep(cells):
    """Fault-free invariants: nothing shed, nothing failed over."""
    for key, cell in cells.items():
        assert cell["shed"] == 0, (key, cell)
        assert cell["failovers"] == 0, (key, cell)
        assert cell["served"] == cell["requests"], (key, cell)


def emit_policy_sweep(cells):
    rows = [
        [
            cell["policy"], cell["replicas"],
            f"{cell['sla_attainment']:.1%}",
            format_time(cell["p50_s"]), format_time(cell["p99_s"]),
        ]
        for _, cell in sorted(cells.items())
    ]
    emit("cluster_policy_sweep", format_table(
        ["policy", "replicas", f"SLA@{SLA_BUDGET * 1e3:.0f}ms",
         "P50", "P99"],
        rows,
        title=(
            "Cluster routing: replica count x policy, fault-free "
            f"({CLUSTER_RATE / 1e3:.0f} K req/s offered)"
        ),
    ))


# ---------------------------------------------------------------------------
# The headline drill: kill 1 of N replicas mid-run, routed vs unrouted
# ---------------------------------------------------------------------------

def run_kill_drill(
    hw,
    rate=CLUSTER_RATE,
    horizon=HORIZON,
    num_replicas=NUM_REPLICAS,
    policy="hash",
    crash_start_fraction=0.3,
    crash_duration_fraction=0.5,
    seed=ARRIVAL_SEED,
):
    """Kill the hot-head owner mid-run; routed vs unrouted baseline.

    Both runs replay the *identical* ``(schedule, seed)``; only
    ``failover`` differs.  Returns ``(payload, reqtrace)``: a
    deterministic drill payload — no wall time, no environment — so
    re-running must reproduce it byte for byte, plus the routed run's
    full sampled-trace artifact.  The payload embeds only the trace
    artifact's *digest* (the full set is megabytes of JSON), so the
    byte-identical replay check still covers every sampled trace.
    """
    dataset = _dataset()
    victim = hot_head_victim(dataset, seed, num_replicas)
    crash_start, crash_duration, crash_end = fault_window(
        horizon, crash_start_fraction, crash_duration_fraction
    )
    schedule = FaultSchedule([
        ReplicaCrash(
            replica=victim, start=crash_start, duration=crash_duration,
        ),
    ])
    requests = PoissonArrivals(
        dataset, rate, seed=seed,
    ).generate_until(horizon)

    def run(failover):
        # The routed run carries per-request tracing: tail capture must
        # retain (and root-cause) 100% of its SLA violators.
        router = ClusterRouter(
            dataset, hw,
            ClusterConfig(
                num_replicas=num_replicas, policy=policy,
                hot_keys=HOT_KEYS, failover=failover,
                breaker=DRILL_BREAKER if failover else None,
            ),
            schedule=schedule,
            update_log=_publish_rounds(dataset, horizon),
            warm_seed=seed,
            trace=(
                TraceConfig(sla_budget=SLA_BUDGET) if failover else None
            ),
        )
        return router.serve(requests)

    routed = run(failover=True)
    unrouted = run(failover=False)

    episode = routed.episodes[0]
    timing = alert_timing(routed.alerts, crash_start, crash_end)
    victim_summary = routed.per_replica[victim]
    counters = routed.metrics.to_dict().get("counters", {})
    payload = {
        "sla_budget_s": SLA_BUDGET,
        "rate_rps": rate,
        "horizon_s": horizon,
        "num_replicas": num_replicas,
        "policy": policy,
        "crash": {
            "replica": victim,
            "start_s": crash_start,
            "duration_s": crash_duration,
            "detect_s": episode.detect_at,
            "rejoin_s": episode.rejoin_at,
        },
        "routed_sla": routed.sla_attainment(SLA_BUDGET),
        "unrouted_sla": unrouted.sla_attainment(SLA_BUDGET),
        "routed_outage_sla": routed.sla_attainment(
            SLA_BUDGET, start=crash_start, end=episode.rejoin_at,
        ),
        "post_rejoin_sla": routed.sla_attainment(
            SLA_BUDGET, start=episode.rejoin_at,
        ),
        "unrouted_shed": unrouted.shed,
        "routed_shed": routed.shed,
        "failovers_dispatched": int(
            counters.get("cluster.failovers_dispatched", 0)
        ),
        "lost_inflight": int(counters.get("cluster.lost_inflight", 0)),
        "breaker_rejections": int(
            counters.get("cluster.breaker_rejections", 0)
        ),
        "replayed_batches": int(counters.get("cluster.replayed_batches", 0)),
        "alert_timing": timing,
        "convergence": {
            "applied_version": victim_summary["applied_version"],
            "version_lag": victim_summary["version_lag"],
        },
        "routed": routed.to_payload(SLA_BUDGET),
        "unrouted": unrouted.to_payload(SLA_BUDGET),
        "rootcause": routed.rootcause,
    }
    reqtrace = routed.trace_payload(SLA_BUDGET)
    payload["reqtrace_digest"] = payload_digest(reqtrace)
    return payload, reqtrace


def check_kill_drill(payload):
    """The acceptance contract for the drill artifact."""
    assert payload["routed_sla"] >= 0.90, payload["routed_sla"]
    assert payload["unrouted_sla"] <= payload["routed_sla"] - 0.05, (
        payload["routed_sla"], payload["unrouted_sla"],
    )
    assert payload["routed_shed"] == 0, payload["routed_shed"]
    assert payload["unrouted_shed"] > 0, payload["unrouted_shed"]
    timing = payload["alert_timing"]
    assert timing["ttd_s"] is not None, timing
    assert timing["early_alerts"] == 0, timing
    assert timing["ttr_s"] is not None, timing
    assert not timing["unresolved"], timing
    assert payload["convergence"]["version_lag"] == 0, payload["convergence"]
    assert payload["failovers_dispatched"] > 0, payload
    assert payload["post_rejoin_sla"] >= 0.90, payload["post_rejoin_sla"]
    # Root-cause contract: every SLA-violating request carries a tag,
    # and every sampled trace's segments telescope to its latency.
    rootcause = payload["rootcause"]
    assert rootcause["coverage"] == 1.0, rootcause
    conservation = rootcause["conservation"]
    assert conservation["checked"] > 0, conservation
    assert conservation["ok"] == conservation["checked"], conservation


def emit_kill_drill(payload, determinism):
    timing = payload["alert_timing"]
    routed = payload["routed"]
    failover_p99 = routed["failover_p99_s"]
    rows = [
        ["routed SLA@2ms", f"{payload['routed_sla']:.1%}"],
        ["unrouted SLA@2ms", f"{payload['unrouted_sla']:.1%}"],
        ["outage-window SLA (routed)",
         f"{payload['routed_outage_sla']:.1%}"],
        ["post-rejoin SLA (routed)", f"{payload['post_rejoin_sla']:.1%}"],
        ["unrouted shed", payload["unrouted_shed"]],
        ["failover P99",
         "-" if failover_p99 is None else format_time(failover_p99)],
        ["time-to-detect", format_time(timing["ttd_s"])],
        ["time-to-recover", format_time(timing["ttr_s"])],
        ["early alerts", timing["early_alerts"]],
        ["replayed log batches", payload["replayed_batches"]],
        ["final version lag", payload["convergence"]["version_lag"]],
        ["byte-identical replay", determinism["identical"]],
    ]
    rootcause = payload["rootcause"]
    rows.append([
        "SLA-miss rootcause coverage", f"{rootcause['coverage']:.0%}"
    ])
    for cause in sorted(rootcause["causes"]):
        rows.append([
            f"  violations: {cause}", rootcause["causes"][cause]
        ])
    emit("cluster_kill_drill", format_table(
        ["measure", "value"],
        rows,
        title=(
            f"Replica kill/recover drill: 1 of {payload['num_replicas']} "
            f"replicas down {payload['crash']['duration_s'] * 1e3:.0f} ms "
            f"at {payload['rate_rps'] / 1e3:.0f} K req/s"
        ),
    ))


def run_drill_determinism(hw, payload, **drill_kwargs):
    """Re-run the drill from the same ``(schedule, seed)``; the canonical
    JSON encodings must match byte for byte."""
    replay, _ = run_kill_drill(hw, **drill_kwargs)
    first = canonical_json(payload)
    second = canonical_json(replay)
    return {
        "identical": first == second,
        "digest": payload_digest(payload),
        "replay_digest": payload_digest(replay),
    }


# ---------------------------------------------------------------------------
# Straggler study: cross-replica hedging under a replica slowdown
# ---------------------------------------------------------------------------

def run_hedge_study(
    hw,
    rate=80_000.0,
    horizon=0.04,
    num_replicas=NUM_REPLICAS,
    slow_factor=6.0,
    hedge_delay=500 * US,
    seed=ARRIVAL_SEED,
):
    """One replica runs ``slow_factor`` x slower mid-run; hedged
    re-dispatch must win often enough to hold the straggler's tail."""
    dataset = _dataset()
    victim = hot_head_victim(dataset, seed, num_replicas)
    slow_start, slow_duration, _ = fault_window(horizon, 0.25, 0.5)
    schedule = FaultSchedule([
        ReplicaSlowdown(
            replica=victim, start=slow_start, duration=slow_duration,
            factor=slow_factor,
        ),
    ])
    requests = PoissonArrivals(
        dataset, rate, seed=seed,
    ).generate_until(horizon)

    def run(hedge):
        router = ClusterRouter(
            dataset, hw,
            ClusterConfig(
                num_replicas=num_replicas, hot_keys=HOT_KEYS,
                hedge_delay=hedge_delay if hedge else None,
            ),
            schedule=schedule,
            update_log=_publish_rounds(dataset, horizon),
            warm_seed=seed,
        )
        return router.serve(requests)

    hedged = run(hedge=True)
    unhedged = run(hedge=False)
    counters = hedged.metrics.to_dict().get("counters", {})
    return {
        "slow_factor": slow_factor,
        "hedge_delay_s": hedge_delay,
        "hedged_p99_s": hedged.percentile(99),
        "unhedged_p99_s": unhedged.percentile(99),
        "hedged_sla": hedged.sla_attainment(SLA_BUDGET),
        "unhedged_sla": unhedged.sla_attainment(SLA_BUDGET),
        "hedges_fired": int(counters.get("cluster.hedges_fired", 0)),
        "hedge_wins": int(counters.get("cluster.hedge_wins", 0)),
    }


def check_hedge_study(result):
    assert result["hedges_fired"] > 0, result
    assert result["hedge_wins"] > 0, result
    assert result["hedge_wins"] <= result["hedges_fired"], result
    assert result["hedged_p99_s"] <= result["unhedged_p99_s"], result


def emit_hedge_study(result):
    emit("cluster_hedging", format_table(
        ["measure", "unhedged", "hedged"],
        [
            ["P99", format_time(result["unhedged_p99_s"]),
             format_time(result["hedged_p99_s"])],
            [f"SLA@{SLA_BUDGET * 1e3:.0f}ms",
             f"{result['unhedged_sla']:.1%}",
             f"{result['hedged_sla']:.1%}"],
            ["hedges fired", "-", result["hedges_fired"]],
            ["hedge wins", "-", result["hedge_wins"]],
        ],
        title=(
            f"Cross-replica hedging vs a {result['slow_factor']:.0f}x "
            "straggler replica"
        ),
    ))


# ---------------------------------------------------------------------------
# Standalone smoke mode (CI)
# ---------------------------------------------------------------------------

def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sweep + drill with the same invariant checks",
    )
    args = parser.parse_args(argv)

    from repro import default_platform

    hw = default_platform()
    if args.smoke:
        sweep_kwargs = dict(
            replica_counts=(2, 4), rate=60_000.0, horizon=0.03,
        )
        drill_kwargs = dict(rate=100_000.0, horizon=0.04)
        hedge_kwargs = dict(rate=60_000.0, horizon=0.03)
    else:
        sweep_kwargs = dict()
        drill_kwargs = dict()
        hedge_kwargs = dict()

    cells = run_policy_sweep(hw, **sweep_kwargs)
    check_policy_sweep(cells)
    emit_policy_sweep(cells)

    drill, reqtrace = run_kill_drill(hw, **drill_kwargs)
    check_kill_drill(drill)
    determinism = run_drill_determinism(hw, drill, **drill_kwargs)
    assert determinism["identical"], determinism
    emit_kill_drill(drill, determinism)
    # The CI cluster smoke uploads these two: the raw sampled traces and
    # their critical-path / root-cause analysis.
    emit_rootcause("cluster_reqtrace", reqtrace)

    hedging = run_hedge_study(hw, **hedge_kwargs)
    check_hedge_study(hedging)
    emit_hedge_study(hedging)

    emit_json("BENCH_cluster", {
        "sla_budget_s": SLA_BUDGET,
        "sweep": cells,
        "drill": drill,
        "determinism": determinism,
        "hedging": hedging,
    })
    print(f"\ncluster drill OK ({'smoke' if args.smoke else 'full'} mode)")


if __name__ == "__main__":
    main()
