"""One workload in one fresh, single-threaded process.

``run.py`` spawns this file; it is not an entry point of its own.  The
process sets up the workload, runs one untimed fill pass (whose outputs
are *pass 0*: every simulated metric is read from it), times passes over
the ladder until ``--seconds`` of serving have been measured, optionally
runs one traced pass, checks outputs, and prints one JSON object.

Only the ``serve`` calls are inside the timed region; restoring the warmed
state before each rung, auditing registries and digesting outputs are not.
"""

from __future__ import annotations

import os

# One BLAS thread, decided before numpy loads: the host ledger is a closed
# loop of one process on a 2-core box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from layers import layer_metrics, p99_ms  # noqa: E402
from spans import SpanTracer  # noqa: E402


def run_pass(workload, tracer=None):
    """Serve every rung once from its restored state.

    Returns ``(outcomes, rung wall seconds, servables)``.  With a tracer,
    the wrappers are in place only while a rung is served, and each timed
    ``serve`` runs under a ``harness`` root span: the layer self times plus
    the harness's own add up to the pass wall time.
    """
    outcomes, seconds, servables = [], [], []
    root = tracer.stem("harness.serve", "harness") if tracer else None
    for tag, rung in enumerate(workload.rungs):
        servable = rung.restore()
        if tracer is None:
            start = time.perf_counter()
            report = servable.serve(rung.requests)
            seconds.append(time.perf_counter() - start)
        else:
            tracer.tag = tag
            with tracer:
                span = tracer.open(root)
                report = servable.serve(rung.requests)
                tracer.close(span)
            seconds.append(tracer.end[span] - tracer.start[span])
        outcomes.append(wl.outcome_of(report))
        servables.append(servable)
    return outcomes, seconds, servables


def audit(servables) -> list:
    """Conservation-law violations of every registry a pass left behind."""
    return [v for servable in servables for v in servable.obs.audit()]


def simulated_metrics(workload, outcomes) -> dict:
    """The simulated-clock end-to-end metrics of one pass."""
    by_rung = {r.name: o for r, o in zip(workload.rungs, outcomes)}
    ref, sat = by_rung["ref"], by_rung["sat"]
    sent = sum(o.sent for o in outcomes)
    shed = sum(o.shed for o in outcomes)
    degraded = sum(o.degraded for o in outcomes)
    rungs = {
        name: {
            "sent": o.sent,
            "succeeded": o.sent - o.shed - o.degraded,
            "failed": o.shed + o.degraded,
            "p99_ms": p99_ms(o.latencies),
            "sla_met_frac": float((o.latencies <= wl.SLA_S).mean()),
        }
        for name, o in by_rung.items()
    }
    return {
        "sim_p50_ms": float(np.median(ref.latencies) * 1e3),
        "sim_p99_ms": p99_ms(ref.latencies),
        "sim_sla_met_frac": rungs["ref"]["sla_met_frac"],
        "sim_goodput_rps": float((sat.latencies <= wl.SLA_S).sum() / sat.span),
        "served_clean_frac": 1.0 - (shed + degraded) / sent,
        "sent": sent,
        "shed": shed,
        "degraded": degraded,
        "rungs": rungs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent spawned this process")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    # ---- setup: build, warm, generate, fill (pass 0) ---------------------
    workload = wl.BUILDERS[args.workload](args.seed, args.scale)
    outcomes0, _, servables = run_pass(workload)
    violations = audit(servables)
    digest0 = wl.digest_of(outcomes0)
    setup_s = time.time() - spawned_at

    # ---- timed passes, tracing off ---------------------------------------
    rung_seconds = []
    digests = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while not rung_seconds or sum(map(sum, rung_seconds)) < args.seconds:
        outcomes, seconds, servables = run_pass(workload)
        rung_seconds.append(seconds)
        digests.append(wl.digest_of(outcomes))
        violations.extend(audit(servables))
    cpu_over_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "conditions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}, 1 thread",
        },
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "rung_names": [r.name for r in workload.rungs],
        "rung_requests": [len(r.requests) for r in workload.rungs],
        "rung_rates": [r.rate for r in workload.rungs],
        "rung_seconds": rung_seconds,
        "digest": digest0,
        "sim": simulated_metrics(workload, outcomes0),
        "gen_s": workload.gen_s,
        "cpu_over_wall": cpu_over_wall,
    }

    # ---- one traced pass --------------------------------------------------
    if args.trace:
        tracer = SpanTracer()
        outcomes, seconds, servables = run_pass(workload, tracer)
        digests.append(wl.digest_of(outcomes))
        violations.extend(audit(servables))
        wall = sum(seconds)
        pass_walls = [sum(s) for s in rung_seconds]
        stems = tracer.stem_report()
        layers = layer_metrics(
            tracer, stems, outcomes, servables, result["rung_names"]
        )
        outer = "cluster.serve" if outcomes[0].cluster else "serving.serve"
        layers["trace.overhead_frac"] = wall / statistics.median(pass_walls) - 1.0
        layers["trace.outer_self_frac"] = stems[outer]["self_s"] / wall
        layers["workloads.gen_s"] = workload.gen_s
        layers["workloads.requests"] = sum(result["rung_requests"])
        layers["harness.cpu_over_wall"] = cpu_over_wall
        quartiles = (
            statistics.quantiles(pass_walls, n=4) if len(pass_walls) > 1
            else [pass_walls[0]] * 3
        )
        layers["harness.host_iqr_frac"] = (
            (quartiles[2] - quartiles[0]) / statistics.median(pass_walls)
        )
        layers["baselines.sim_goodput_ratio"] = (
            result["sim"]["sim_goodput_rps"] / wl.baseline_goodput(workload)
            if workload.parts else 0.0
        )
        result["traced_pass_s"] = wall
        result["layers"] = layers
        result["stems"] = stems
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.to_payload()))

    # ---- output checks ----------------------------------------------------
    result["digest_stable"] = all(d == digest0 for d in digests)
    result["passes"] = len(rung_seconds)
    result["audit_violations"] = violations
    result["oracle"] = wl.oracle_check(workload) if workload.parts else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
