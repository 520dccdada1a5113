"""Adversarial-scenario benchmark: adaptive controller vs static configs.

Each catalogue scenario (flash crowd, diurnal, multi-tenant, cold-start
flood) is served twice per cell through the pipelined server over a
quantizing Fleche cache:

- **static grid**: a sweep of fixed admission probabilities, controller
  off — the best cell is the strongest configuration a profile-once
  operator could have picked ahead of time;
- **adaptive**: the same stack starting from admission 1.0 with the
  :class:`repro.autotune.AdaptiveController` closed loop attached.

The adaptive run *wins* a scenario when it strictly beats the best
static cell on SLA attainment or on hit rate.  A win on one metric may
give up the other: the report prints each win's delta on the other
metric.  ``--full`` mode requires at least ``MIN_WINS`` of the four
scenarios to be won; smoke mode only checks structural invariants
(action conservation, the identity run, zero ``autotune.*`` counters
without a controller) so CI stays fast and deterministic.  The identity
run serves ``diurnal``, where the controller proposes nothing, with and
without a controller attached, and requires the two to match exactly.

A cluster drill section replays the flash crowd through a 3-replica
router while the hot-head owner is crashed, tying the scenario suite to
the failover machinery.

The tracked ``benchmarks/results/BENCH_scenarios.json`` is the pin:
``tests/test_pinned_payloads.py`` requires the ``--smoke`` output to
equal it leaf for leaf.  Re-pin by running the bench and committing the
``git diff``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke
"""

import argparse
import sys

from repro import default_platform
from repro.autotune import AdaptiveController
from repro.bench.harness import canonical_json
from repro.bench.reporting import emit_json, format_table
from repro.cluster import run_scenario_drill
from repro.core.config import FlecheConfig
from repro.core.precision import PrecisionConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.obs import WindowedCollector
from repro.refresh import RefreshScheduler, UpdateSubscriber
from repro.scenarios import SCENARIOS, build_scenario, validate_load
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

SEED = 7
TABLES = 6
CORPUS = 12_000
DIM = 16
CACHE_RATIO = 0.02
WINDOW = 1e-3
#: Tight budget so the stress phases actually cost attainment.
SLA_BUDGET = 6e-4

#: Static admission probabilities swept with the controller off.
STATIC_GRID_FULL = (1.0, 0.6, 0.3)
STATIC_GRID_SMOKE = (1.0, 0.5)

#: Scenario construction overrides per cell (rates sized so the stress
#: phase pushes the pipeline near saturation at the tight SLA budget).
SCENARIO_PARAMS = {
    "flash_crowd": {"base_rate": 220_000.0, "intensity": 3.0},
    "diurnal": {"mean_rate": 220_000.0, "amplitude": 0.9},
    "multi_tenant": {},
    "cold_start_flood": {"base_rate": 220_000.0, "flood_size": 1024,
                         "flood_share": 0.85},
}
SCENARIO_PARAMS_SMOKE = {
    "flash_crowd": {"base_rate": 150_000.0},
    "cold_start_flood": {"base_rate": 150_000.0},
}

#: Full mode requires the adaptive run to win this many scenarios.
MIN_WINS = 2
#: A win must clear the best static cell by more than this margin.
WIN_EPS = 1e-4


def _scenario_load(name, dataset, smoke):
    params = dict(SCENARIO_PARAMS[name])
    if smoke and name in SCENARIO_PARAMS_SMOKE:
        params.update(SCENARIO_PARAMS_SMOKE[name])
    scenario = build_scenario(name, dataset, seed=SEED, **params)
    load = scenario.build()
    validate_load(load, dataset)
    return load


def serve_scenario(name, load, dataset, hw, admission=1.0, controller=None):
    """One serving run; returns the metric cell for the payload."""
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(
        store,
        FlecheConfig(
            cache_ratio=CACHE_RATIO,
            precision=PrecisionConfig(
                fp32_share=0.25, fp16_share=0.25, int8_share=0.5
            ),
        ),
        hw,
    )
    if admission < 1.0:
        layer.cache.set_admission_probability(admission)
    collector = WindowedCollector(window=WINDOW, sla_budget=SLA_BUDGET)
    if load.tenant_of is not None:
        collector.set_tenancy(load.tenant_of, load.tenant_slos)
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=2,
        policy=BatchingPolicy(max_batch_size=512, max_delay=5e-4),
        collector=collector,
        autotuner=controller,
    )
    if load.update_log is not None:
        subscriber = UpdateSubscriber(
            load.update_log, layer.cache, host_store=layer.store,
        )
        subscriber.bind_observability(server.obs)
        server.refresher = RefreshScheduler(subscriber, hw)
    report = server.serve(load.requests)
    server.obs.check()  # conservation laws, incl. the autotune action law
    looked_up = report.hits + report.misses
    cell = {
        "served": int(report.served),
        "hit_rate": report.hits / looked_up if looked_up else 0.0,
        "sla": report.sla_attainment(SLA_BUDGET),
        "p99_ms": report.p99_latency * 1e3,
        "windows": collector.closed_windows,
    }
    if controller is not None:
        cell["actions"] = {
            outcome: int(server.obs.total(f"autotune.{outcome}"))
            for outcome in ("proposed", "applied", "suppressed", "clamped")
        }
        cell["law_ok"] = cell["actions"]["proposed"] == (
            cell["actions"]["applied"] + cell["actions"]["suppressed"]
            + cell["actions"]["clamped"]
        )
    else:
        cell["autotune_keys"] = sum(
            1 for (key, _labels) in report.metrics.counters
            if key.startswith("autotune.")
        )
    return cell


def run_grid(hw, smoke):
    """Static sweep + adaptive run per scenario; marks per-scenario wins."""
    grid = STATIC_GRID_SMOKE if smoke else STATIC_GRID_FULL
    dataset = uniform_tables_spec(
        num_tables=TABLES, corpus_size=CORPUS, alpha=-1.2, dim=DIM,
    )
    out = {}
    for name in sorted(SCENARIOS):
        static = {}
        for admission in grid:
            load = _scenario_load(name, dataset, smoke)
            static[f"{admission:g}"] = serve_scenario(
                name, load, dataset, hw, admission=admission,
            )
        load = _scenario_load(name, dataset, smoke)
        adaptive = serve_scenario(
            name, load, dataset, hw,
            controller=AdaptiveController(),
        )
        # Best static cell: attainment first, hit rate as tiebreak.
        best_key = max(
            static, key=lambda k: (static[k]["sla"], static[k]["hit_rate"]),
        )
        best = static[best_key]
        sla_win = adaptive["sla"] > best["sla"] + WIN_EPS
        hit_win = adaptive["hit_rate"] > best["hit_rate"] + WIN_EPS
        out[name] = {
            "static": static,
            "adaptive": adaptive,
            "best_static": best_key,
            "adaptive_win": bool(sla_win or hit_win),
            "win_metric": ("sla" if sla_win else
                           "hit_rate" if hit_win else ""),
        }
    return out


def run_identity(hw, smoke):
    """No controller vs an attached controller on ``diurnal``, where it
    proposes nothing: hits, latencies and counters must match exactly,
    with no ``autotune.*`` counter in either run."""
    dataset = uniform_tables_spec(
        num_tables=TABLES, corpus_size=CORPUS, alpha=-1.2, dim=DIM,
    )

    def one(controller):
        load = _scenario_load("diurnal", dataset, smoke)
        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=CACHE_RATIO), hw,
        )
        collector = WindowedCollector(window=WINDOW, sla_budget=SLA_BUDGET)
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=2,
            policy=BatchingPolicy(max_batch_size=512, max_delay=5e-4),
            collector=collector,
            autotuner=controller,
        )
        report = server.serve(load.requests)
        digest = canonical_json({
            "hits": int(report.hits),
            "misses": int(report.misses),
            "latencies": [float(x) for x in report.latencies],
            "counters": sorted(
                (key, str(labels), float(value))
                for (key, labels), value in report.metrics.counters.items()
            ),
        })
        autotune_keys = sum(
            1 for (key, _labels) in report.metrics.counters
            if key.startswith("autotune.")
        )
        return digest, autotune_keys

    none_digest, none_keys = one(None)
    idle_digest, idle_keys = one(AdaptiveController())
    return {
        "identical": none_digest == idle_digest,
        "autotune_keys_off": none_keys + idle_keys,
    }


def run_drill(hw, smoke):
    """Flash crowd through a 3-replica cluster with the head owner down."""
    dataset = uniform_tables_spec(
        num_tables=TABLES, corpus_size=CORPUS, alpha=-1.2, dim=DIM,
    )
    result = run_scenario_drill(
        dataset, hw, scenario="flash_crowd", seed=SEED,
        sla_budget=2e-3,
        base_rate=60_000.0 if smoke else 120_000.0,
    )
    return {
        "victim": result.victim,
        "served": int(result.report.served),
        "shed": int(result.report.shed),
        "sla": result.sla_attainment,
        "stress_sla": result.stress_sla_attainment,
    }


def run_bench(smoke):
    hw = default_platform()
    scenarios = run_grid(hw, smoke)
    identity = run_identity(hw, smoke)
    drill = run_drill(hw, smoke)
    wins = sum(1 for cell in scenarios.values() if cell["adaptive_win"])
    return {
        "mode": "smoke" if smoke else "full",
        "sla_budget": SLA_BUDGET,
        "min_wins": MIN_WINS,
        "scenarios": scenarios,
        "wins": wins,
        "identity": identity,
        "drill": drill,
    }


def emit_report(payload):
    rows = []
    for name, cell in sorted(payload["scenarios"].items()):
        best = cell["static"][cell["best_static"]]
        adaptive = cell["adaptive"]
        actions = adaptive.get("actions", {})
        win, other = "-", "-"
        if cell["adaptive_win"]:
            # A win counts on either metric; show what it cost the other.
            win = cell["win_metric"]
            metric = "hit_rate" if win == "sla" else "sla"
            delta = (adaptive[metric] - best[metric]) * 100
            other = f"{metric} {delta:+.2f} pp"
        rows.append([
            name,
            f"{best['sla']:.1%}/{best['hit_rate']:.1%}"
            f" (adm {cell['best_static']})",
            f"{adaptive['sla']:.1%}/{adaptive['hit_rate']:.1%}",
            actions.get("applied", 0),
            actions.get("suppressed", 0),
            actions.get("clamped", 0),
            win,
            other,
        ])
    print(format_table(
        ["scenario", "best static (sla/hit)", "adaptive (sla/hit)",
         "applied", "suppressed", "clamped", "win", "other metric"],
        rows,
        title=(f"Adaptive controller vs static admission grid "
               f"(SLA budget {payload['sla_budget'] * 1e3:g} ms)"),
    ))
    identity = payload["identity"]
    drill = payload["drill"]
    print(f"\nadaptive wins: {payload['wins']}/4"
          f" (full-mode floor {payload['min_wins']})")
    print(f"idle controller identical to none: {identity['identical']}; "
          f"autotune counters: {identity['autotune_keys_off']}")
    print(f"drill: victim {drill['victim']} served {drill['served']} "
          f"shed {drill['shed']} sla {drill['sla']:.1%} "
          f"stress {drill['stress_sla']:.1%}")


def check(payload, smoke):
    """In-run acceptance assertions; returns violations."""
    violations = []
    identity = payload["identity"]
    if not identity["identical"]:
        violations.append(
            "idle-controller run diverged from no-controller run"
        )
    if identity["autotune_keys_off"] != 0:
        violations.append(
            f"{identity['autotune_keys_off']} autotune.* counter keys "
            "exist in the identity runs"
        )
    for name, cell in payload["scenarios"].items():
        adaptive = cell["adaptive"]
        if not adaptive.get("law_ok", False):
            violations.append(
                f"{name}: action conservation law violated "
                f"({adaptive.get('actions')})"
            )
        for key, static_cell in cell["static"].items():
            if static_cell.get("autotune_keys", 0) != 0:
                violations.append(
                    f"{name}: static cell {key} grew autotune.* keys"
                )
    if payload["drill"]["served"] <= 0:
        violations.append("cluster drill served zero requests")
    if not smoke and payload["wins"] < payload["min_wins"]:
        violations.append(
            f"adaptive won {payload['wins']} scenarios < "
            f"required {payload['min_wins']}"
        )
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: short grid, lighter rates, no win floor",
    )
    args = parser.parse_args(argv)

    payload = run_bench(smoke=args.smoke)
    emit_report(payload)
    emit_json("BENCH_scenarios", payload)

    violations = check(payload, smoke=args.smoke)
    if violations:
        print("\nFAILURES:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("\nscenarios bench passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
