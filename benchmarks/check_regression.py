"""CI perf-regression gate for the serving depth and refresh sweeps.

Compares a freshly produced ``BENCH_serving.json`` (the ``--smoke``
output of ``bench_serving_sla.py``) against the pinned
``BENCH_baseline.json``: throughput-at-SLA must stay within a relative
tolerance and SLA attainment within an absolute one, per (replica,
server) cell.  The simulator is deterministic, so the tolerances only
absorb environment drift (numpy versions across the CI matrix), not real
regressions — a >X% throughput drop fails the build.

When the pinned ``BENCH_refresh_baseline.json`` is present the same gate
covers the model-refresh sweep (``bench_refresh.py --smoke`` output):
per (rate x quantum) cell, SLA attainment within the absolute tolerance
and the sustained update-apply rate within the relative one — so neither
"refresh got slower" nor "refresh started hurting serving" can land
silently.  Likewise for ``BENCH_cluster_baseline.json`` and the cluster
drill (``bench_cluster.py --smoke`` output): per sweep cell and for the
routed/unrouted drill, SLA attainment within the absolute tolerance.

``BENCH_precision_baseline.json`` (pinned from ``bench_precision.py
--smoke``) gates the mixed-precision cache: per tier split, the hit rate
stays within the absolute tolerance and the effective-capacity
multiplier within the relative one; the int8-tail AUC delta must stay
under the pinned epsilon; and the pinned-fp32 run must remain exactly
identical to plain fleche (the golden no-op guarantee, re-checked on
every build).

``BENCH_scenarios_baseline.json`` (pinned from ``bench_scenarios.py
--smoke``) gates the adversarial-scenario suite: per scenario, the
adaptive run's SLA attainment and hit rate stay within the absolute
tolerance of the pinned values, as does the best static cell (the
controller-vs-static gap cannot silently collapse); the candidate's
scenario-win count must not drop below the pinned count; and two
candidate-only invariants are rechecked on every build — the
controller-off run stays byte-identical to the no-controller run, and
zero ``autotune.*`` metric keys exist while the controller is off.

Only simulated-clock payloads are compared here.  Wall-clock speed is
measured by the ledger benchmark (``benchmarks/ledger/run.py``), which
alternates parent/change pairs instead of trusting one pinned runtime.

Usage::

    python benchmarks/check_regression.py \
        [--baseline benchmarks/results/BENCH_baseline.json] \
        [--candidate benchmarks/results/BENCH_serving.json] \
        [--refresh-baseline benchmarks/results/BENCH_refresh_baseline.json] \
        [--refresh-candidate benchmarks/results/BENCH_refresh.json] \
        [--cluster-baseline benchmarks/results/BENCH_cluster_baseline.json] \
        [--cluster-candidate benchmarks/results/BENCH_cluster.json] \
        [--precision-baseline \
            benchmarks/results/BENCH_precision_baseline.json] \
        [--precision-candidate benchmarks/results/BENCH_precision.json] \
        [--rel-tolerance 0.15] [--abs-sla-tolerance 0.05]

Exit status 0 when every cell is within tolerance, 1 otherwise.
"""

import argparse
import sys

from repro.bench.reporting import format_table, load_artifact

#: Relative tolerance on rate-like metrics (throughput at SLA).
REL_TOLERANCE = 0.15
#: Absolute tolerance on SLA attainment (a fraction in [0, 1]).
ABS_SLA_TOLERANCE = 0.05

#: (metric key, kind) pairs compared per (replica, server) cell.
CHECKED_METRICS = (
    ("throughput_at_sla_rps", "rel"),
    ("sla_attainment", "abs"),
)


def compare(baseline: dict, candidate: dict,
            rel_tolerance: float = REL_TOLERANCE,
            abs_sla_tolerance: float = ABS_SLA_TOLERANCE):
    """Compare two BENCH_serving payloads; returns (rows, violations).

    ``rows`` is one table row per compared metric; ``violations`` the
    subset of human-readable failures (empty = pass).  Cells present in
    the baseline but missing from the candidate are violations (a
    silently dropped replica must not pass); extra candidate cells are
    ignored (new replicas do not need a baseline first).
    """
    rows = []
    violations = []
    for rname, servers in sorted(baseline.get("replicas", {}).items()):
        for label, base_cell in sorted(servers.items()):
            cand_cell = candidate.get("replicas", {}).get(rname, {}).get(label)
            if cand_cell is None:
                violations.append(f"{rname}/{label}: missing from candidate")
                continue
            for metric, kind in CHECKED_METRICS:
                base = float(base_cell[metric])
                cand = float(cand_cell[metric])
                if kind == "rel":
                    drift = (cand - base) / base if base else 0.0
                    ok = abs(drift) <= rel_tolerance
                    shown = f"{drift:+.1%}"
                else:
                    drift = cand - base
                    ok = abs(drift) <= abs_sla_tolerance
                    shown = f"{drift:+.3f}"
                rows.append([
                    rname, label, metric, f"{base:.4g}", f"{cand:.4g}",
                    shown, "ok" if ok else "FAIL",
                ])
                if not ok:
                    violations.append(
                        f"{rname}/{label}/{metric}: baseline {base:.4g} -> "
                        f"candidate {cand:.4g} ({shown} outside tolerance)"
                    )
    return rows, violations


#: (metric key, kind) pairs compared per refresh-sweep cell.
REFRESH_CHECKED_METRICS = (
    ("sla_attainment", "abs"),
    ("apply_rate_keys_s", "rel"),
)


def compare_refresh(baseline: dict, candidate: dict,
                    rel_tolerance: float = REL_TOLERANCE,
                    abs_sla_tolerance: float = ABS_SLA_TOLERANCE):
    """Compare two BENCH_refresh payloads; returns (rows, violations).

    Walks the per-rate no-refresh ``baselines`` and the per
    (rate x quantum) ``cells``; missing candidate cells are violations,
    extra candidate cells (a widened sweep) are ignored.  Cells whose
    baseline apply rate is zero — the saturated rates where idle-bounded
    refresh intentionally yields — only gate on SLA attainment.
    """
    rows = []
    violations = []
    for section in ("baselines", "cells"):
        for key, base_cell in sorted(baseline.get(section, {}).items()):
            cand_cell = candidate.get(section, {}).get(key)
            if cand_cell is None:
                violations.append(f"{section}/{key}: missing from candidate")
                continue
            for metric, kind in REFRESH_CHECKED_METRICS:
                base = float(base_cell[metric])
                cand = float(cand_cell[metric])
                if kind == "rel":
                    drift = (cand - base) / base if base else 0.0
                    ok = abs(drift) <= rel_tolerance
                    shown = f"{drift:+.1%}"
                else:
                    drift = cand - base
                    ok = abs(drift) <= abs_sla_tolerance
                    shown = f"{drift:+.3f}"
                rows.append([
                    section, key, metric, f"{base:.4g}", f"{cand:.4g}",
                    shown, "ok" if ok else "FAIL",
                ])
                if not ok:
                    violations.append(
                        f"{section}/{key}/{metric}: baseline {base:.4g} -> "
                        f"candidate {cand:.4g} ({shown} outside tolerance)"
                    )
    return rows, violations


#: (payload path, kind) pairs compared for the cluster drill artifact.
CLUSTER_SWEEP_METRICS = (("sla_attainment", "abs"),)
CLUSTER_DRILL_METRICS = (
    ("routed_sla", "abs"),
    ("unrouted_sla", "abs"),
    ("post_rejoin_sla", "abs"),
)


def compare_cluster(baseline: dict, candidate: dict,
                    abs_sla_tolerance: float = ABS_SLA_TOLERANCE):
    """Compare two BENCH_cluster payloads; returns (rows, violations).

    Gates the fault-free sweep cells and the kill-drill headline SLAs.
    Missing candidate cells are violations; extra cells are ignored.
    """
    rows = []
    violations = []

    def check(section, key, metric, base, cand):
        drift = cand - base
        ok = abs(drift) <= abs_sla_tolerance
        rows.append([
            section, key, metric, f"{base:.4g}", f"{cand:.4g}",
            f"{drift:+.3f}", "ok" if ok else "FAIL",
        ])
        if not ok:
            violations.append(
                f"{section}/{key}/{metric}: baseline {base:.4g} -> "
                f"candidate {cand:.4g} ({drift:+.3f} outside tolerance)"
            )

    for key, base_cell in sorted(baseline.get("sweep", {}).items()):
        cand_cell = candidate.get("sweep", {}).get(key)
        if cand_cell is None:
            violations.append(f"sweep/{key}: missing from candidate")
            continue
        for metric, _ in CLUSTER_SWEEP_METRICS:
            check("sweep", key, metric,
                  float(base_cell[metric]), float(cand_cell[metric]))

    base_drill = baseline.get("drill", {})
    cand_drill = candidate.get("drill", {})
    for metric, _ in CLUSTER_DRILL_METRICS:
        if metric not in base_drill:
            continue
        if metric not in cand_drill:
            violations.append(f"drill/{metric}: missing from candidate")
            continue
        check("drill", metric, metric,
              float(base_drill[metric]), float(cand_drill[metric]))

    determinism = candidate.get("determinism", {})
    if determinism and not determinism.get("identical", False):
        violations.append("drill replay was not byte-identical")

    # Candidate-only invariants of the traced drill (present once the
    # routed run carries request tracing): every SLA violator must be
    # root-caused, and every sampled trace's segment decomposition must
    # telescope to its latency.
    rootcause = cand_drill.get("rootcause")
    if rootcause is not None:
        coverage = float(rootcause.get("coverage", 0.0))
        rows.append([
            "drill", "rootcause", "coverage", "1", f"{coverage:.4g}",
            "-", "ok" if coverage == 1.0 else "FAIL",
        ])
        if coverage != 1.0:
            violations.append(
                "drill/rootcause: SLA-miss coverage "
                f"{coverage:.4g} != 1.0 (untagged violators)"
            )
        conservation = rootcause.get("conservation", {})
        checked = int(conservation.get("checked", 0))
        ok_count = int(conservation.get("ok", -1))
        conserved = checked > 0 and ok_count == checked
        rows.append([
            "drill", "rootcause", "conservation", str(checked),
            str(ok_count), "-", "ok" if conserved else "FAIL",
        ])
        if not conserved:
            violations.append(
                "drill/rootcause: segment conservation failed "
                f"({ok_count}/{checked} traces conserve)"
            )
    return rows, violations


#: (metric key, kind) pairs compared per mixed-precision tier split.
PRECISION_SPLIT_METRICS = (
    ("hit_rate", "abs"),
    ("effective_capacity_x", "rel"),
)


def compare_precision(baseline: dict, candidate: dict,
                      rel_tolerance: float = REL_TOLERANCE,
                      abs_sla_tolerance: float = ABS_SLA_TOLERANCE):
    """Compare two BENCH_precision payloads; returns (rows, violations).

    Per tier split, the hit rate is gated absolutely (it is a fraction)
    and the effective-capacity multiplier relatively.  Two candidate-only
    invariants ride along: ``pinned_identical`` must be true (the
    fp32-pinned golden no-op), and the int8-tail AUC delta must stay
    under the payload's own pinned epsilon — both rechecked here so a
    bench edit cannot quietly drop them.
    """
    rows = []
    violations = []
    for name, base_cell in sorted(baseline.get("splits", {}).items()):
        cand_cell = candidate.get("splits", {}).get(name)
        if cand_cell is None:
            violations.append(f"splits/{name}: missing from candidate")
            continue
        for metric, kind in PRECISION_SPLIT_METRICS:
            base = float(base_cell[metric])
            cand = float(cand_cell[metric])
            if kind == "rel":
                drift = (cand - base) / base if base else 0.0
                ok = abs(drift) <= rel_tolerance
                shown = f"{drift:+.1%}"
            else:
                drift = cand - base
                ok = abs(drift) <= abs_sla_tolerance
                shown = f"{drift:+.3f}"
            rows.append([
                "splits", name, metric, f"{base:.4g}", f"{cand:.4g}",
                shown, "ok" if ok else "FAIL",
            ])
            if not ok:
                violations.append(
                    f"splits/{name}/{metric}: baseline {base:.4g} -> "
                    f"candidate {cand:.4g} ({shown} outside tolerance)"
                )
    pinned = bool(candidate.get("pinned_identical", False))
    rows.append([
        "golden", "pinned-fp32", "identical", "true", str(pinned).lower(),
        "-", "ok" if pinned else "FAIL",
    ])
    if not pinned:
        violations.append(
            "pinned-fp32 precision run diverged from plain fleche"
        )
    auc = candidate.get("auc", {})
    delta = float(auc.get("delta", 0.0))
    epsilon = float(auc.get("epsilon", 0.0))
    auc_ok = bool(auc) and delta <= epsilon
    rows.append([
        "auc", "int8-tail", "delta", f"<= {epsilon:.4g}", f"{delta:.4g}",
        "-", "ok" if auc_ok else "FAIL",
    ])
    if not auc_ok:
        violations.append(
            f"auc/int8-tail: delta {delta:.4g} exceeds epsilon "
            f"{epsilon:.4g}" if auc else "auc section missing from candidate"
        )
    return rows, violations


#: (metric key, kind) pairs compared per scenario for both the adaptive
#: run and the best static cell (all fractions -> absolute tolerance).
SCENARIO_CHECKED_METRICS = (
    ("sla", "abs"),
    ("hit_rate", "abs"),
)


def compare_scenarios(baseline: dict, candidate: dict,
                      abs_sla_tolerance: float = ABS_SLA_TOLERANCE):
    """Compare two BENCH_scenarios payloads; returns (rows, violations).

    Per scenario, the adaptive cell and the best static cell are gated
    on SLA attainment and hit rate (both fractions, absolute tolerance)
    — so neither "the controller got worse" nor "the static bar
    quietly dropped" (which would make the adaptive win hollow) can
    land silently.  The candidate must also keep at least the pinned
    number of scenario wins, keep the controller-off path byte-identical
    to the no-controller path, and emit zero ``autotune.*`` keys while
    the controller is off — the last two are candidate-only invariants
    rechecked on every build.
    """
    rows = []
    violations = []

    def check(scenario, cell_name, metric, base, cand):
        drift = cand - base
        ok = abs(drift) <= abs_sla_tolerance
        rows.append([
            scenario, cell_name, metric, f"{base:.4g}", f"{cand:.4g}",
            f"{drift:+.3f}", "ok" if ok else "FAIL",
        ])
        if not ok:
            violations.append(
                f"{scenario}/{cell_name}/{metric}: baseline {base:.4g} -> "
                f"candidate {cand:.4g} ({drift:+.3f} outside tolerance)"
            )

    for name, base_cell in sorted(baseline.get("scenarios", {}).items()):
        cand_cell = candidate.get("scenarios", {}).get(name)
        if cand_cell is None:
            violations.append(f"scenarios/{name}: missing from candidate")
            continue
        for metric, _ in SCENARIO_CHECKED_METRICS:
            check(name, "adaptive", metric,
                  float(base_cell["adaptive"][metric]),
                  float(cand_cell["adaptive"][metric]))
            base_best = base_cell["static"][base_cell["best_static"]]
            cand_best = cand_cell["static"][cand_cell["best_static"]]
            check(name, "best-static", metric,
                  float(base_best[metric]), float(cand_best[metric]))

    base_wins = int(baseline.get("wins", 0))
    cand_wins = int(candidate.get("wins", 0))
    wins_ok = cand_wins >= base_wins
    rows.append([
        "suite", "wins", "adaptive-wins", f">= {base_wins}",
        str(cand_wins), "-", "ok" if wins_ok else "FAIL",
    ])
    if not wins_ok:
        violations.append(
            f"suite/wins: adaptive won {cand_wins} scenarios < "
            f"pinned {base_wins}"
        )

    identity = candidate.get("identity", {})
    identical = bool(identity.get("identical", False))
    rows.append([
        "identity", "controller-off", "identical", "true",
        str(identical).lower(), "-", "ok" if identical else "FAIL",
    ])
    if not identical:
        violations.append(
            "identity: disabled-controller run diverged from "
            "no-controller run"
        )
    off_keys = int(identity.get("autotune_keys_off", -1))
    rows.append([
        "identity", "controller-off", "autotune-keys", "0", str(off_keys),
        "-", "ok" if off_keys == 0 else "FAIL",
    ])
    if off_keys != 0:
        violations.append(
            f"identity: {off_keys} autotune.* metric keys exist with "
            "the controller off"
        )
    return rows, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", default="benchmarks/results/BENCH_baseline.json"
    )
    parser.add_argument(
        "--candidate", default="benchmarks/results/BENCH_serving.json"
    )
    parser.add_argument(
        "--full-baseline",
        default="benchmarks/results/BENCH_serving_full_baseline.json",
    )
    parser.add_argument(
        "--full-candidate",
        default="benchmarks/results/BENCH_serving_full.json",
    )
    parser.add_argument(
        "--refresh-baseline",
        default="benchmarks/results/BENCH_refresh_baseline.json",
    )
    parser.add_argument(
        "--refresh-candidate",
        default="benchmarks/results/BENCH_refresh.json",
    )
    parser.add_argument(
        "--cluster-baseline",
        default="benchmarks/results/BENCH_cluster_baseline.json",
    )
    parser.add_argument(
        "--cluster-candidate",
        default="benchmarks/results/BENCH_cluster.json",
    )
    parser.add_argument(
        "--precision-baseline",
        default="benchmarks/results/BENCH_precision_baseline.json",
    )
    parser.add_argument(
        "--precision-candidate",
        default="benchmarks/results/BENCH_precision.json",
    )
    parser.add_argument(
        "--scenarios-baseline",
        default="benchmarks/results/BENCH_scenarios_baseline.json",
    )
    parser.add_argument(
        "--scenarios-candidate",
        default="benchmarks/results/BENCH_scenarios.json",
    )
    parser.add_argument("--rel-tolerance", type=float, default=REL_TOLERANCE)
    parser.add_argument(
        "--abs-sla-tolerance", type=float, default=ABS_SLA_TOLERANCE
    )
    args = parser.parse_args(argv)

    baseline = load_artifact(args.baseline)
    candidate = load_artifact(args.candidate)
    rows, violations = compare(
        baseline, candidate,
        rel_tolerance=args.rel_tolerance,
        abs_sla_tolerance=args.abs_sla_tolerance,
    )
    print(format_table(
        ["replica", "server", "metric", "baseline", "candidate", "drift",
         "status"],
        rows,
        title=(
            f"Serving perf regression gate (rel ±{args.rel_tolerance:.0%}, "
            f"SLA ±{args.abs_sla_tolerance:.2f})"
        ),
    ))

    import os

    if os.path.exists(args.full_baseline) and os.path.exists(
        args.full_candidate
    ):
        full_baseline = load_artifact(args.full_baseline)
        full_candidate = load_artifact(args.full_candidate)
        full_rows, full_violations = compare(
            full_baseline, full_candidate,
            rel_tolerance=args.rel_tolerance,
            abs_sla_tolerance=args.abs_sla_tolerance,
        )
        violations.extend(full_violations)
        print()
        print(format_table(
            ["replica", "server", "metric", "baseline", "candidate",
             "drift", "status"],
            full_rows,
            title="Full-mode serving gate",
        ))
    else:
        print(f"\nno full-mode pair at {args.full_baseline} + "
              f"{args.full_candidate}; full serving gate skipped")

    if os.path.exists(args.refresh_baseline):
        refresh_baseline = load_artifact(args.refresh_baseline)
        refresh_candidate = load_artifact(args.refresh_candidate)
        refresh_rows, refresh_violations = compare_refresh(
            refresh_baseline, refresh_candidate,
            rel_tolerance=args.rel_tolerance,
            abs_sla_tolerance=args.abs_sla_tolerance,
        )
        violations.extend(refresh_violations)
        print()
        print(format_table(
            ["section", "cell", "metric", "baseline", "candidate", "drift",
             "status"],
            refresh_rows,
            title=(
                "Refresh perf regression gate "
                f"(rel ±{args.rel_tolerance:.0%}, "
                f"SLA ±{args.abs_sla_tolerance:.2f})"
            ),
        ))
    else:
        print(f"\nno refresh baseline at {args.refresh_baseline}; "
              "refresh gate skipped")

    if os.path.exists(args.cluster_baseline):
        cluster_baseline = load_artifact(args.cluster_baseline)
        cluster_candidate = load_artifact(args.cluster_candidate)
        cluster_rows, cluster_violations = compare_cluster(
            cluster_baseline, cluster_candidate,
            abs_sla_tolerance=args.abs_sla_tolerance,
        )
        violations.extend(cluster_violations)
        print()
        print(format_table(
            ["section", "cell", "metric", "baseline", "candidate", "drift",
             "status"],
            cluster_rows,
            title=(
                "Cluster drill regression gate "
                f"(SLA ±{args.abs_sla_tolerance:.2f})"
            ),
        ))
    else:
        print(f"\nno cluster baseline at {args.cluster_baseline}; "
              "cluster gate skipped")

    if os.path.exists(args.precision_baseline):
        precision_baseline = load_artifact(args.precision_baseline)
        precision_candidate = load_artifact(args.precision_candidate)
        precision_rows, precision_violations = compare_precision(
            precision_baseline, precision_candidate,
            rel_tolerance=args.rel_tolerance,
            abs_sla_tolerance=args.abs_sla_tolerance,
        )
        violations.extend(precision_violations)
        print()
        print(format_table(
            ["section", "cell", "metric", "baseline", "candidate", "drift",
             "status"],
            precision_rows,
            title=(
                "Mixed-precision regression gate "
                f"(hit rate ±{args.abs_sla_tolerance:.2f}, "
                f"capacity ±{args.rel_tolerance:.0%})"
            ),
        ))
    else:
        print(f"\nno precision baseline at {args.precision_baseline}; "
              "precision gate skipped")

    if os.path.exists(args.scenarios_baseline):
        scenarios_baseline = load_artifact(args.scenarios_baseline)
        scenarios_candidate = load_artifact(args.scenarios_candidate)
        scenario_rows, scenario_violations = compare_scenarios(
            scenarios_baseline, scenarios_candidate,
            abs_sla_tolerance=args.abs_sla_tolerance,
        )
        violations.extend(scenario_violations)
        print()
        print(format_table(
            ["section", "cell", "metric", "baseline", "candidate", "drift",
             "status"],
            scenario_rows,
            title=(
                "Adversarial-scenario regression gate "
                f"(SLA/hit ±{args.abs_sla_tolerance:.2f})"
            ),
        ))
    else:
        print(f"\nno scenarios baseline at {args.scenarios_baseline}; "
              "scenarios gate skipped")

    if violations:
        print("\nREGRESSIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
