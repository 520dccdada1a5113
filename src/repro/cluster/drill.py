"""Scenario-driven cluster drills.

The kill/recover chaos drill (PR 7) crashes a replica under steady
Poisson traffic; this module points the same machinery at the
*adversarial* loads of :mod:`repro.scenarios` — a flash-crowd storm
hitting a 3-replica cluster mid-crash is a categorically harder test
than either stressor alone, because the failed-over storm traffic lands
on replicas whose caches were warmed for the *old* head.

The drill stays deterministic: scenario, fault schedule and routing are
all pure functions of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import WorkloadError
from ..faults import FaultSchedule, ReplicaCrash
from ..multigpu.partition import HashPartitioner
from ..scenarios import build_scenario, validate_load
from ..workloads.zipf import zipf_head_ids
from .router import ClusterConfig, ClusterReport, ClusterRouter


@dataclass
class ScenarioDrillResult:
    """Outcome of one scenario drill."""

    scenario: str
    report: ClusterReport
    #: Replica crashed during the scenario's stress phase (None = no
    #: crash was scheduled).
    victim: Optional[int]
    #: SLA attainment over the whole run at the drill budget.
    sla_attainment: float
    #: SLA attainment restricted to the stress phase (storm/flood
    #: window) — the number the drill exists to measure.
    stress_sla_attainment: float


def hot_head_victim(dataset, seed: int, replicas: int) -> int:
    """The replica owning the workload's hottest key under hash routing.

    Crashing the hot-head owner maximises the failed-over hot traffic.
    The kill drill of ``benchmarks/bench_cluster.py`` picks its victim
    here too; the head comes from the shared
    :func:`~repro.workloads.zipf.zipf_head_ids` helper.
    """
    hottest = zipf_head_ids(dataset.fields[:1], seed, 1)[0]
    return int(HashPartitioner(replicas).owner_of(hottest)[0])


def run_scenario_drill(
    dataset,
    hw,
    scenario: str = "flash_crowd",
    seed: int = 0,
    crash: bool = True,
    sla_budget: float = 2e-3,
    **scenario_overrides,
) -> ScenarioDrillResult:
    """Serve one adversarial scenario through a three-replica cluster.

    With ``crash=True`` the replica owning the Zipf head is killed for
    the duration of the scenario's *stress* phase (the phase with the
    highest rate, or the middle phase of a flood), so failover and the
    adversarial load peak together.
    """
    cfg = ClusterConfig(num_replicas=3)
    sc = build_scenario(scenario, dataset, seed=seed, **scenario_overrides)
    load = sc.build()
    validate_load(load, dataset)
    if not load.requests:
        raise WorkloadError(f"scenario {scenario!r} produced no requests")

    victim: Optional[int] = None
    schedule = FaultSchedule()
    if crash:
        stress = max(load.phases, key=lambda p: (p.rate, bool(p.note)))
        victim = hot_head_victim(dataset, seed, cfg.num_replicas)
        schedule = FaultSchedule(
            [
                ReplicaCrash(
                    replica=victim,
                    start=max(stress.start, 1e-6),
                    duration=stress.duration,
                )
            ]
        )
    else:
        stress = max(load.phases, key=lambda p: (p.rate, bool(p.note)))

    router = ClusterRouter(
        dataset, hw,
        config=cfg,
        schedule=schedule,
        update_log=load.update_log,
        warm_seed=seed,
    )
    report = router.serve(load.requests)
    return ScenarioDrillResult(
        scenario=scenario,
        report=report,
        victim=victim,
        sla_attainment=report.sla_attainment(sla_budget),
        stress_sla_attainment=report.sla_attainment(
            sla_budget, start=stress.start, end=stress.end
        ),
    )


__all__ = ["ScenarioDrillResult", "hot_head_victim", "run_scenario_drill"]
