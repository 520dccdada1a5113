"""Adversarial-scenario benchmark: adaptive controller vs static configs.

Each catalogue scenario (flash crowd, diurnal, multi-tenant, cold-start
flood) is served twice per cell through the pipelined server over a
quantizing Fleche cache:

- **static grid**: a sweep of fixed admission probabilities, controller
  off;
- **adaptive**: the same stack starting from admission 1.0 with the
  :class:`repro.autotune.AdaptiveController` drift boost attached.

The adaptive run *wins* a scenario when, against the static cell it
starts from (admission :data:`BASELINE`, which is what an inert
controller serves), it is strictly better on one of SLA attainment and
hit rate and no worse on the other.  Both modes require at least
``MIN_WINS[mode]`` of the four scenarios to be won, and check the
structural invariants (the identity run, zero ``autotune.*`` counters
without a controller).  The identity run serves ``diurnal``, where the
controller opens no boost, with and without a controller attached, and
requires the two to match exactly.

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

#: Scenarios the adaptive run must win, per mode: the drift boost's
#: measured count (smoke: ``cold_start_flood`` and ``flash_crowd``;
#: full: ``cold_start_flood``).
MIN_WINS = {"smoke": 2, "full": 1}
#: A win must clear the baseline by more than this margin.
WIN_EPS = 1e-4
#: The static cell the adaptive run starts from and is scored against.
BASELINE = "1"


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
    server.obs.check()  # conservation laws
    looked_up = report.hits + report.misses
    cell = {
        "served": int(report.served),
        "hit_rate": report.hits / looked_up if looked_up else 0.0,
        "sla": report.sla_attainment(SLA_BUDGET),
        "p99_ms": report.p99_latency * 1e3,
        "windows": collector.closed_windows,
    }
    if controller is not None:
        cell["boosts"] = int(server.obs.total("autotune.boosts"))
    else:
        cell["autotune_keys"] = sum(
            1 for (key, _labels) in report.metrics.counters
            if key.startswith("autotune.")
        )
    return cell


def adaptive_wins(adaptive, baseline):
    """Whether ``adaptive`` beats ``baseline``: strictly better on one of
    SLA attainment and hit rate, and no worse on the other."""
    better = [adaptive[m] > baseline[m] + WIN_EPS for m in ("sla", "hit_rate")]
    no_worse = [adaptive[m] >= baseline[m] for m in ("sla", "hit_rate")]
    return any(better) and all(no_worse)


def count_wins(scenarios):
    """Scenarios whose adaptive cell beats its :data:`BASELINE` cell."""
    return sum(
        adaptive_wins(cell["adaptive"], cell["static"][BASELINE])
        for cell in scenarios.values()
    )


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
        out[name] = {
            "static": static,
            "adaptive": adaptive,
            "adaptive_win": adaptive_wins(adaptive, static[BASELINE]),
        }
    return out


def run_identity(hw, smoke):
    """No controller vs an attached controller on ``diurnal``, where it
    opens no boost: hits, latencies and counters must match exactly,
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
    mode = "smoke" if smoke else "full"
    return {
        "mode": mode,
        "sla_budget": SLA_BUDGET,
        "min_wins": MIN_WINS[mode],
        "scenarios": scenarios,
        "wins": count_wins(scenarios),
        "identity": identity,
        "drill": drill,
    }


def emit_report(payload):
    rows = []
    for name, cell in sorted(payload["scenarios"].items()):
        base = cell["static"][BASELINE]
        adaptive = cell["adaptive"]
        rows.append([
            name,
            f"{base['sla']:.1%}/{base['hit_rate']:.1%}",
            f"{adaptive['sla']:.1%}/{adaptive['hit_rate']:.1%}",
            f"{(adaptive['sla'] - base['sla']) * 100:+.2f}",
            f"{(adaptive['hit_rate'] - base['hit_rate']) * 100:+.2f}",
            adaptive["boosts"],
            "yes" if cell["adaptive_win"] else "-",
        ])
    print(format_table(
        ["scenario", f"static adm {BASELINE} (sla/hit)",
         "adaptive (sla/hit)", "sla pp", "hit pp", "boosts", "win"],
        rows,
        title=(f"Adaptive controller vs its static start "
               f"(SLA budget {payload['sla_budget'] * 1e3:g} ms)"),
    ))
    identity = payload["identity"]
    drill = payload["drill"]
    print(f"\nadaptive wins: {payload['wins']}/4"
          f" ({payload['mode']}-mode floor {payload['min_wins']})")
    print(f"idle controller identical to none: {identity['identical']}; "
          f"autotune counters: {identity['autotune_keys_off']}")
    print(f"drill: victim {drill['victim']} served {drill['served']} "
          f"shed {drill['shed']} sla {drill['sla']:.1%} "
          f"stress {drill['stress_sla']:.1%}")


def check(payload):
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
        for key, static_cell in cell["static"].items():
            if static_cell.get("autotune_keys", 0) != 0:
                violations.append(
                    f"{name}: static cell {key} grew autotune.* keys"
                )
    if payload["drill"]["served"] <= 0:
        violations.append("cluster drill served zero requests")
    wins = count_wins(payload["scenarios"])
    if wins < MIN_WINS[payload["mode"]]:
        violations.append(
            f"adaptive won {wins} scenarios < required "
            f"{MIN_WINS[payload['mode']]}"
        )
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: short grid, lighter rates",
    )
    args = parser.parse_args(argv)

    payload = run_bench(smoke=args.smoke)
    emit_report(payload)
    emit_json("BENCH_scenarios", payload)

    violations = check(payload)
    if violations:
        print("\nFAILURES:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("\nscenarios bench passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
