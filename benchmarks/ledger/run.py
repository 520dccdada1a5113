"""The ledger benchmark: simulated SLA metrics and host throughput.

Two ledgers, never mixed: what the modelled T4 box would deliver
(simulated clock; repeats exactly for a seed) and how fast the simulator
itself runs (host time; noisy).  Metric names, units, directions and
regression bounds live in ``BENCHMARK.json`` at the repository root; this
file only measures them.

    python3 benchmarks/ledger/run.py                 all workloads -> results/
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
                                                     one workload, one JSON line
    python3 benchmarks/ledger/run.py --repeat-check  two sets of runs vs the bounds
    python3 benchmarks/ledger/run.py --history       trajectory of every metric
    python3 benchmarks/ledger/run.py --selftest      the benchmark's own checks

Each workload runs in fresh single-threaded subprocesses (``worker.py``):
with ``--trace 0`` two of them, each setting the workload up from scratch
and timing half of ``--seconds``, so ``setup_s`` is a median over set-ups
and the simulated outputs are checked across processes; with ``--trace 1``
one, which adds the traced pass the per-layer metrics come from.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
#: History lines committed by the PR that defines (or corrects) the
#: benchmark; ``results/history.jsonl`` continues them locally.
BASELINE = HERE / "baseline.jsonl"
HISTORY = RESULTS / "history.jsonl"

#: End-to-end metrics on the simulated clock: a host-speed change must
#: leave every one of them, and the digest, identical.
SIMULATED = ("sim_p50_ms", "sim_p99_ms", "sim_sla_met_frac",
             "sim_goodput_rps", "served_clean_frac")
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def spawn_worker(workload, seed, seconds, trace, scale=1.0, trace_out=None):
    """Run ``worker.py`` to completion in a fresh process; returns its JSON."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--trace", str(trace),
        "--scale", repr(float(scale)), "--spawned-at", repr(time.time()),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, env=env, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _problems(runs) -> list:
    """Everything that makes a set of worker results incorrect."""
    problems = []
    for run in runs:
        if not run["digest_stable"]:
            problems.append("a pass did not reproduce pass 0's digest")
        problems += [f"audit: {v}" for v in run["audit_violations"]]
        oracle = run["oracle"]
        if oracle and oracle["mismatched"]:
            problems.append(
                f"{oracle['mismatched']} of {oracle['checked']} sampled CTR "
                "probabilities differ from the no-cache reference"
            )
    if len({run["digest"] for run in runs}) > 1:
        problems.append("processes disagree on the simulated digest")
    return problems


def measure(workload, seed, seconds, trace, scale=1.0, trace_out=None) -> dict:
    """One benchmark run of one workload, in the driver's result shape
    plus a ``detail`` entry (dropped from the driver-mode line)."""
    if trace:
        runs = [spawn_worker(workload, seed, seconds, 1, scale, trace_out)]
        metrics = dict(runs[0]["layers"])
        metrics["harness.digest_stable"] = float(runs[0]["digest_stable"])
    else:
        runs = [
            spawn_worker(workload, seed, seconds / 2.0, 0, scale)
            for _ in range(2)
        ]
        # Fastest observation of each rung over every timed pass of both
        # processes.  The box is a shared VM: neighbours only ever add time
        # (the same GEMM loop swings 0.35-0.60 s within a minute), so the
        # minimum is the least contaminated estimate; its run-to-run spread
        # is half the median's (0.045 against 0.099 on serve_hot).
        passes = [p for run in runs for p in run["rung_seconds"]]
        rung_best = [min(column) for column in zip(*passes)]
        metrics = {name: runs[0]["sim"][name] for name in SIMULATED}
        metrics["host_req_per_s"] = (
            sum(runs[0]["rung_requests"]) / sum(rung_best)
        )
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        metrics["peak_rss_mb"] = statistics.median(
            r["peak_rss_mb"] for r in runs
        )
    problems = _problems(runs) + [
        f"{name} is not finite (>= 1 % of a rung's requests shed?)"
        for name, value in metrics.items() if not math.isfinite(value)
    ]
    # Every pass a process served counts, pass 0 and the traced one too.
    # Shed and wrong-valued requests failed.  Degraded (stale-served)
    # requests are an injected, exactly repeatable condition of
    # refresh_tiered; served_clean_frac carries them.
    attempted = failed = 0
    for run in runs:
        served = run["passes"] + 1 + int(trace)
        attempted += served * run["sim"]["sent"]
        failed += served * run["sim"]["shed"]
        failed += (run["oracle"] or {}).get("mismatched", 0)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "problems": problems,
            "digest": runs[0]["digest"],
            "conditions": runs[0]["conditions"],
            "rungs": runs[0]["sim"]["rungs"],
            "rung_rates": runs[0]["rung_rates"],
            "oracle": runs[0]["oracle"],
            "rung_seconds": [p for run in runs for p in run["rung_seconds"]],
            "stems": runs[0].get("stems"),
        },
    }


def with_units(metrics: dict, specs: list) -> dict:
    """``name -> {"value", "unit"}``; the names must be exactly ``specs``'."""
    declared = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(declared):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: measured-only "
            f"{sorted(set(metrics) - set(declared))}, declared-only "
            f"{sorted(set(declared) - set(metrics))}"
        )
    return {
        name: {"value": metrics[name], "unit": declared[name]}
        for name in declared
    }


# ---------------------------------------------------------------------------
# Conditions, printing, history
# ---------------------------------------------------------------------------

def _git(*args) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def conditions(seed, seconds, worker_conditions) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = _git("rev-parse", "--short", "HEAD")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        **worker_conditions,
        "seed": seed,
        "seconds": seconds,
        "commit": commit or "unknown",
        "dirty": bool(_git("status", "--porcelain")) if commit else None,
    }


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def print_workload(spec, e2e, layers, manifest) -> None:
    name = spec["name"]
    detail = e2e["detail"]
    print(f"\n== {name}: {spec['why']}")
    print("   open loop on the simulated clock (Poisson arrivals, latency "
          "from scheduled arrival, generator lateness 0 by construction); "
          "closed loop of one process on the host")
    for rung, rate in zip(detail["rungs"], detail["rung_rates"]):
        r = detail["rungs"][rung]
        print(f"   rung {rung:3s} {rate:>11,.0f} req/s offered: sent {r['sent']}"
              f"  succeeded {r['succeeded']}  failed {r['failed']}"
              f"  P99 {r['p99_ms']:.4f} ms  within 2 ms {r['sla_met_frac']:.4f}")
    walls = [sum(seconds) for seconds in detail["rung_seconds"]]
    quartiles = (
        statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    )
    print(f"   host: {len(walls)} timed passes, pass wall quartiles "
          + " / ".join(f"{q:.3f}" for q in quartiles) + " s")
    if detail["oracle"]:
        o = detail["oracle"]
        print(f"   value oracle: {o['checked']} sampled requests equal the "
              f"no-cache reference bit for bit, {o['excluded']} excluded "
              f"(flat-key collisions), {o['mismatched']} mismatched")
    print(f"   digest {detail['digest']}")
    for problem in detail["problems"] + layers["detail"]["problems"]:
        print(f"   INCORRECT: {problem}")
    print("   end to end:")
    for m in manifest["end_to_end"]:
        value = e2e["metrics"][m["name"]]
        print(f"     {m['name']:28s} {_fmt(value):>14s} {m['unit']:8s}"
              f" ({m['better']} is better, bound {m['bound']:.1%})")
    print("   per layer (traced pass; 0 = layer not exercised):")
    for m in manifest["per_layer"]:
        value = layers["metrics"][m["name"]]
        print(f"     {m['name']:36s} {_fmt(value):>14s} {m['unit']}")
    ratio = layers["metrics"]["baselines.sim_goodput_ratio"]
    if ratio:
        print(f"   Fleche / per-table goodput at sat = {ratio:.2f}x (paper, "
              "end to end: 1.1-2.4x; the model is validated against shapes "
              "in EXPERIMENTS.md, not against hardware)")


def history_line(cond, results) -> dict:
    return {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "conditions": cond,
        "workloads": {
            name: {"digest": e2e["detail"]["digest"], **e2e["metrics"]}
            for name, (e2e, _) in results.items()
        },
    }


def print_history() -> int:
    lines = []
    for path in (BASELINE, HISTORY):
        if path.exists():
            for text in path.read_text().splitlines():
                # The defining PR's own line sits in both files on its box.
                if text and json.loads(text) not in lines:
                    lines.append(json.loads(text))
    if not lines:
        print("no history yet: run the benchmark once")
        return 0
    manifest = load_manifest()
    for spec in manifest["workloads"]:
        print(f"\n== {spec['name']}")
        for m in manifest["end_to_end"]:
            print(f"  {m['name']} [{m['unit']}]")
            for line in lines:
                cond = line["conditions"]
                values = line["workloads"].get(spec["name"])
                if values is None:
                    continue
                commit = f"{cond['commit']}{'*' if cond['dirty'] else ''}"
                print(f"    {line['time']}  {commit:12s} seed {cond['seed']:<4}"
                      f" {_fmt(values[m['name']])}")
    return 0


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def driver_mode(args) -> int:
    """One workload, one result line (the contract of BENCHMARK.json)."""
    manifest = load_manifest()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    specs = manifest["per_layer" if args.trace else "end_to_end"]
    detail = result.pop("detail")
    for problem in detail["problems"]:
        print(f"INCORRECT: {problem}")
    print(f"{args.workload} seed {args.seed}: digest {detail['digest']}, "
          f"{len(detail['rung_seconds'])} timed passes")
    result["metrics"] = with_units(result["metrics"], specs)
    print(json.dumps(result))
    return 0


def full_run(seed, seconds) -> int:
    """Every workload, traced and untraced; writes ``results/``."""
    manifest = load_manifest()
    RESULTS.mkdir(exist_ok=True)
    results = {}
    for spec in manifest["workloads"]:
        name = spec["name"]
        e2e = measure(name, seed, seconds, 0)
        layers = measure(
            name, seed, seconds, 1, trace_out=RESULTS / f"trace_{name}.json"
        )
        with_units(e2e["metrics"], manifest["end_to_end"])
        with_units(layers["metrics"], manifest["per_layer"])
        results[name] = (e2e, layers)
    first_e2e = next(iter(results.values()))[0]
    cond = conditions(seed, seconds, first_e2e["detail"]["conditions"])
    print("conditions: " + ", ".join(f"{k}={v}" for k, v in cond.items()))
    for spec in manifest["workloads"]:
        print_workload(spec, *results[spec["name"]], manifest)
    ok = all(e["correct"] and l["correct"] for e, l in results.values())
    latest = {
        "conditions": cond,
        "correct": ok,
        "workloads": {
            name: {
                "end_to_end": e2e["metrics"], "per_layer": layers["metrics"],
                "attempted": e2e["attempted"], "failed": e2e["failed"],
                "detail": e2e["detail"], "stems": layers["detail"]["stems"],
            }
            for name, (e2e, layers) in results.items()
        },
    }
    (RESULTS / "latest.json").write_text(json.dumps(latest, indent=1) + "\n")
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(history_line(cond, results)) + "\n")
    print(f"\nwrote {RESULTS / 'latest.json'}, appended {HISTORY}")
    print("all outputs correct" if ok else "OUTPUTS INCORRECT")
    return 0 if ok else 1


def repeat_check(seed, seconds) -> int:
    """Two sets of runs of the same code, gap against each bound."""
    manifest = load_manifest()
    breaches = 0
    print(f"{'workload':16s} {'metric':20s} {'run 1':>14s} {'run 2':>14s}"
          f" {'worse by':>9s} {'bound':>6s}")
    for spec in manifest["workloads"]:
        first, second = (
            measure(spec["name"], seed, seconds, 0) for _ in range(2)
        )
        rows = []
        for m in manifest["end_to_end"]:
            a, b = first["metrics"][m["name"]], second["metrics"][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if m["name"] in SIMULATED:
                verdict = "" if a == b else "NOT IDENTICAL"
            else:
                verdict = "" if worse <= m["bound"] else "OVER BOUND"
            rows.append((m, a, b, worse, verdict))
        digests = first["detail"]["digest"] == second["detail"]["digest"]
        for m, a, b, worse, verdict in rows:
            breaches += bool(verdict)
            print(f"{spec['name']:16s} {m['name']:20s} {_fmt(a):>14s}"
                  f" {_fmt(b):>14s} {worse:>+9.2%} {m['bound']:>6.1%} {verdict}")
        if not (digests and first["correct"] and second["correct"]):
            breaches += 1
            print(f"{spec['name']:16s} digest or outputs differ: "
                  f"{first['detail']['problems'] + second['detail']['problems']}")
    print("repeat check passed" if not breaches else f"{breaches} breaches")
    return 0 if not breaches else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; claims must hold on an unused one")
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of serving to time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--history", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not MANIFEST.is_file():
        print("the ledger benchmark measures the repro package: run it from "
              "a checkout that has src/repro and BENCHMARK.json",
              file=sys.stderr)
        return 2
    if args.history:
        return print_history()
    if args.selftest:
        from selftest import selftest
        return selftest()
    if args.seconds is None:
        args.seconds = float(load_manifest()["run_seconds"])
    if args.workload:
        return driver_mode(args)
    if args.repeat_check:
        return repeat_check(args.seed, args.seconds)
    return full_run(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
