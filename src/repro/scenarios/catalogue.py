"""The adversarial scenario catalogue (see ``docs/scenarios.md``).

Four stressors, each targeting a different subsystem seam:

* :class:`FlashCrowdScenario` — sudden head rotation at a rate spike:
  the cached head goes cold instantly while traffic multiplies
  (admission + eviction stress; the drift detector's cleanest signal).
* :class:`DiurnalScenario` — a sinusoidal arrival-rate envelope:
  batching and SLA attainment must survive the peak without the cache
  churning at the trough.
* :class:`MultiTenantScenario` — tenants with different Zipf skews and
  SLOs sharing one cache: the flat design's elastic per-table split
  against head dilution (per-tenant ``sla{tenant=…}`` series).
* :class:`ColdStartFloodScenario` — an ``UpdateLog`` publish followed
  immediately by traffic over never-seen ids: refresh apply, admission,
  and insert pressure all fire at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import WorkloadError
from ..refresh.log import UpdateLog
from .base import (
    Phase,
    Scenario,
    ScenarioLoad,
    assemble_requests,
    draw_feature_cube,
    poisson_arrival_times,
)


class FlashCrowdScenario(Scenario):
    """Hot-key storm: head rotation plus a rate spike for one phase."""

    name = "flash_crowd"

    def __init__(
        self,
        dataset,
        seed: int = 0,
        base_rate: float = 80_000.0,
        storm_start: float = 8e-3,
        storm_duration: float = 6e-3,
        cooldown: float = 6e-3,
        intensity: float = 3.0,
        storm_share: float = 0.85,
        rotation_offset: int = 101,
    ):
        super().__init__(dataset, seed)
        if intensity < 1.0:
            raise WorkloadError("storm intensity must be >= 1")
        if not 0.0 < storm_share <= 1.0:
            raise WorkloadError("storm_share must be in (0, 1]")
        self.base_rate = float(base_rate)
        self.storm_start = float(storm_start)
        self.storm_duration = float(storm_duration)
        self.cooldown = float(cooldown)
        self.intensity = float(intensity)
        self.storm_share = float(storm_share)
        self.rotation_offset = int(rotation_offset)

    def phases(self) -> List[Phase]:
        s, d = self.storm_start, self.storm_duration
        return [
            Phase("calm", 0.0, s, self.base_rate),
            Phase(
                "storm", s, s + d, self.base_rate * self.intensity,
                note=(
                    f"head rotated (offset {self.rotation_offset}), "
                    f"{self.storm_share:.0%} of traffic on the new head"
                ),
            ),
            Phase("cooldown", s + d, s + d + self.cooldown, self.base_rate),
        ]

    def build(self) -> ScenarioLoad:
        phases = self.phases()
        rng = self._rng(salt=1)
        times = poisson_arrival_times(rng, phases)
        n = len(times)
        k = self.dataset.ids_per_field
        cube = draw_feature_cube(self.field_samplers(), n, k)
        in_storm = (times >= self.storm_start) & (
            times < self.storm_start + self.storm_duration
        )
        storm_mask = in_storm & (rng.random(n) < self.storm_share)
        count = int(storm_mask.sum())
        if count:
            rotated = self.field_samplers(seed_offset=self.rotation_offset)
            cube[storm_mask] = draw_feature_cube(rotated, count, k)
        return ScenarioLoad(
            requests=assemble_requests(times, cube),
            phases=phases,
        )


class DiurnalScenario(Scenario):
    """Sinusoidal arrival-rate envelope over a constant id distribution."""

    name = "diurnal"

    def __init__(
        self,
        dataset,
        seed: int = 0,
        mean_rate: float = 80_000.0,
        amplitude: float = 0.8,
        period: float = 10e-3,
        duration: float = 20e-3,
        segments_per_period: int = 16,
    ):
        super().__init__(dataset, seed)
        if not 0.0 <= amplitude < 1.0:
            raise WorkloadError("amplitude must be in [0, 1)")
        if period <= 0 or duration <= 0:
            raise WorkloadError("period and duration must be positive")
        if segments_per_period < 4:
            raise WorkloadError("need >= 4 segments per period")
        self.mean_rate = float(mean_rate)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.duration = float(duration)
        self.segments_per_period = int(segments_per_period)

    def phases(self) -> List[Phase]:
        seg = self.period / self.segments_per_period
        edges = np.arange(0.0, self.duration + seg / 2, seg)
        phases = []
        for j in range(len(edges) - 1):
            mid = (edges[j] + edges[j + 1]) / 2.0
            rate = self.mean_rate * (
                1.0 + self.amplitude * np.sin(2.0 * np.pi * mid / self.period)
            )
            phases.append(
                Phase(f"diurnal[{j}]", float(edges[j]), float(edges[j + 1]),
                      float(rate))
            )
        return phases

    def build(self) -> ScenarioLoad:
        phases = self.phases()
        rng = self._rng(salt=2)
        times = poisson_arrival_times(rng, phases)
        cube = draw_feature_cube(
            self.field_samplers(), len(times), self.dataset.ids_per_field
        )
        return ScenarioLoad(
            requests=assemble_requests(times, cube),
            phases=phases,
        )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic shape: rate, skew, and latency budget."""

    rate: float
    alpha: float
    slo: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise WorkloadError("tenant rate must be positive")
        if self.alpha >= 0:
            raise WorkloadError("tenant alpha must be negative")
        if self.slo <= 0:
            raise WorkloadError("tenant SLO must be positive")


DEFAULT_TENANTS: Dict[str, TenantSpec] = {
    "hot": TenantSpec(rate=60_000.0, alpha=-1.4, slo=2e-3),
    "flat": TenantSpec(rate=30_000.0, alpha=-0.8, slo=4e-3),
    "bursty": TenantSpec(rate=20_000.0, alpha=-1.1, slo=2e-3),
}


class MultiTenantScenario(Scenario):
    """Tenants with per-tenant Zipf alphas and SLOs sharing one cache."""

    name = "multi_tenant"

    def __init__(
        self,
        dataset,
        seed: int = 0,
        tenants: Optional[Dict[str, TenantSpec]] = None,
        duration: float = 20e-3,
    ):
        super().__init__(dataset, seed)
        self.tenants = dict(tenants or DEFAULT_TENANTS)
        if not self.tenants:
            raise WorkloadError("need at least one tenant")
        if duration <= 0:
            raise WorkloadError("duration must be positive")
        self.duration = float(duration)

    def phases(self) -> List[Phase]:
        total = sum(t.rate for t in self.tenants.values())
        return [
            Phase(
                "mixed", 0.0, self.duration, total,
                note=", ".join(
                    f"{name}: {spec.rate:g}/s alpha={spec.alpha:g}"
                    for name, spec in sorted(self.tenants.items())
                ),
            )
        ]

    def build(self) -> ScenarioLoad:
        k = self.dataset.ids_per_field
        all_times, all_cubes, all_tenants = [], [], []
        for t_idx, (name, spec) in enumerate(sorted(self.tenants.items())):
            rng = self._rng(salt=3 + t_idx)
            times = poisson_arrival_times(
                rng, [Phase(name, 0.0, self.duration, spec.rate)]
            )
            cube = draw_feature_cube(
                self.field_samplers(
                    seed_offset=7919 * (t_idx + 1), alpha=spec.alpha
                ),
                len(times), k,
            )
            all_times.append(times)
            all_cubes.append(cube)
            all_tenants.extend([name] * len(times))
        times = np.concatenate(all_times)
        cube = np.concatenate(all_cubes, axis=0)
        tenants = np.asarray(all_tenants, dtype=object)
        order = np.argsort(times, kind="stable")
        times, cube, tenants = times[order], cube[order], tenants[order]
        return ScenarioLoad(
            requests=assemble_requests(times, cube),
            phases=self.phases(),
            tenant_of=list(tenants),
            tenant_slos={n: s.slo for n, s in self.tenants.items()},
        )


class ColdStartFloodScenario(Scenario):
    """Never-seen ids flooding in right after an ``UpdateLog`` publish.

    Pre-flood traffic draws from a *restricted* corpus (the top
    ``corpus - flood_size`` ids of every field), so the held-back tail
    ids ``[corpus - flood_size, corpus)`` are provably never seen before
    the flood.  The scenario's update log publishes fresh vectors for
    exactly those ids just before the flood phase — wiring the log to a
    refresh subscriber reproduces the post-publish cold-start stampede.
    """

    name = "cold_start_flood"

    def __init__(
        self,
        dataset,
        seed: int = 0,
        base_rate: float = 80_000.0,
        flood_start: float = 8e-3,
        flood_duration: float = 6e-3,
        cooldown: float = 6e-3,
        flood_size: int = 512,
        flood_share: float = 0.7,
    ):
        super().__init__(dataset, seed)
        min_corpus = min(f.corpus_size for f in dataset.fields)
        if not 0 < flood_size < min_corpus:
            raise WorkloadError(
                f"flood_size must be in (0, {min_corpus}) for this dataset"
            )
        if not 0.0 < flood_share <= 1.0:
            raise WorkloadError("flood_share must be in (0, 1]")
        self.base_rate = float(base_rate)
        self.flood_start = float(flood_start)
        self.flood_duration = float(flood_duration)
        self.cooldown = float(cooldown)
        self.flood_size = int(flood_size)
        self.flood_share = float(flood_share)

    def phases(self) -> List[Phase]:
        s, d = self.flood_start, self.flood_duration
        return [
            Phase("warm", 0.0, s, self.base_rate,
                  note=f"corpus restricted by {self.flood_size} tail ids"),
            Phase("flood", s, s + d, self.base_rate,
                  note=(
                      f"{self.flood_share:.0%} of traffic on the "
                      f"{self.flood_size} freshly published ids"
                  )),
            Phase("settle", s + d, s + d + self.cooldown, self.base_rate),
        ]

    def _flood_log(self) -> UpdateLog:
        rng = self._rng(salt=5)
        log = UpdateLog(retention=1_000_000)
        updates = {}
        for spec in self.dataset.table_specs():
            lo = spec.corpus_size - self.flood_size
            ids = np.arange(lo, spec.corpus_size, dtype=np.uint64)
            vectors = rng.standard_normal(
                (self.flood_size, spec.dim)
            ).astype(np.float32)
            updates[spec.table_id] = (ids, vectors)
        # Published an instant before the flood phase opens: the refresh
        # subscriber sees the new version exactly when the cold ids land.
        log.append(1, updates, published_at=max(0.0, self.flood_start - 1e-6))
        return log

    def build(self) -> ScenarioLoad:
        phases = self.phases()
        rng = self._rng(salt=4)
        times = poisson_arrival_times(rng, phases)
        n = len(times)
        k = self.dataset.ids_per_field
        min_corpus = min(f.corpus_size for f in self.dataset.fields)
        base = self.field_samplers(corpus_limit=min_corpus - self.flood_size)
        cube = draw_feature_cube(base, n, k)
        in_flood = (times >= self.flood_start) & (
            times < self.flood_start + self.flood_duration
        )
        flood_mask = in_flood & (rng.random(n) < self.flood_share)
        count = int(flood_mask.sum())
        if count:
            flood_cols = []
            for f in self.dataset.fields:
                lo = f.corpus_size - self.flood_size
                flood_cols.append(
                    rng.integers(
                        lo, f.corpus_size, size=(count, k), dtype=np.uint64
                    )
                )
            cube[flood_mask] = np.stack(flood_cols, axis=1)
        return ScenarioLoad(
            requests=assemble_requests(times, cube),
            phases=phases,
            update_log=self._flood_log(),
        )


#: Scenario registry: name -> class.  ``build_scenario`` is the CLI /
#: bench entry point.
SCENARIOS = {
    cls.name: cls
    for cls in (
        FlashCrowdScenario,
        DiurnalScenario,
        MultiTenantScenario,
        ColdStartFloodScenario,
    )
}


def build_scenario(name: str, dataset, seed: int = 0, **overrides) -> Scenario:
    """Instantiate a catalogue scenario by name."""
    cls = SCENARIOS.get(name)
    if cls is None:
        raise WorkloadError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        )
    return cls(dataset, seed=seed, **overrides)


__all__ = [
    "FlashCrowdScenario",
    "DiurnalScenario",
    "MultiTenantScenario",
    "ColdStartFloodScenario",
    "TenantSpec",
    "DEFAULT_TENANTS",
    "SCENARIOS",
    "build_scenario",
]
