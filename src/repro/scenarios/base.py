"""Scenario infrastructure: phased loads over the workload layer.

A :class:`Scenario` composes the existing workload primitives
(:class:`~repro.workloads.zipf.ZipfSampler`, the dataset specs, the
serving :class:`~repro.serving.arrivals.Request` format) into an
*adversarial* phased load: a list of requests whose arrival process and
id distribution change at declared :class:`Phase` boundaries.  The
output (:class:`ScenarioLoad`) plugs straight into the serving loop —
requests are positional (``request_id == position``), features ride on a
``(count, tables, k)`` cube exactly as
:class:`~repro.serving.arrivals.PoissonArrivals` produces them — plus
optional multi-tenant attribution and an optional
:class:`~repro.refresh.log.UpdateLog` for refresh-coupled scenarios.

Determinism: every scenario is a pure function of ``(dataset, seed,
parameters)`` — arrivals use the exact piecewise-constant Poisson
construction (counts ~ Poisson, instants = sorted uniforms per segment,
the order-statistics characterisation), so benches can pin results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from ..serving.arrivals import Request, request_columns
from ..workloads.zipf import ZipfSampler


@dataclass(frozen=True)
class Phase:
    """One homogeneous stretch of a scenario's load."""

    name: str
    start: float
    end: float
    #: Mean arrival rate (requests/second) during the phase.
    rate: float
    note: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise WorkloadError(
                f"phase {self.name!r}: end must exceed start"
            )
        if self.rate < 0:
            raise WorkloadError(f"phase {self.name!r}: rate must be >= 0")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ScenarioLoad:
    """A fully materialised scenario: requests plus their shape."""

    requests: List[Request]
    phases: List[Phase]
    #: Tenant name per request position (multi-tenant scenarios only).
    tenant_of: Optional[List[str]] = None
    #: Per-tenant SLA budgets, for ``WindowedCollector.set_tenancy``.
    tenant_slos: Dict[str, float] = field(default_factory=dict)
    #: Update log whose publishes the scenario is timed against
    #: (cold-start flood only); wire it to an ``UpdateSubscriber`` +
    #: ``RefreshScheduler`` on the serving side.
    update_log: Optional[object] = None

    @property
    def duration(self) -> float:
        return self.phases[-1].end if self.phases else 0.0


class Scenario:
    """Base class: a named, seeded generator of :class:`ScenarioLoad`."""

    name = "scenario"

    def __init__(self, dataset, seed: int = 0):
        if not dataset.fields:
            raise WorkloadError("scenario needs a dataset with fields")
        self.dataset = dataset
        self.seed = int(seed)

    def phases(self) -> List[Phase]:
        raise NotImplementedError

    def build(self) -> ScenarioLoad:
        raise NotImplementedError

    # --------------------------------------------------------------- helpers

    def _rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed * 2654435761 + salt) & 0xFFFFFFFF)

    def field_samplers(
        self,
        seed_offset: int = 0,
        alpha: Optional[float] = None,
        corpus_limit: Optional[int] = None,
    ) -> List[ZipfSampler]:
        """Per-field samplers under the serving ``seed*31+i`` convention.

        ``seed_offset`` shifts the base seed (a different offset gives a
        *different head* over the same corpus — the flash-crowd rotation);
        ``alpha`` overrides every field's exponent (per-tenant skew);
        ``corpus_limit`` caps the id domain (the cold-start flood holds
        back the tail ids so they are provably never-seen).
        """
        samplers = []
        for i, f in enumerate(self.dataset.fields):
            corpus = f.corpus_size
            if corpus_limit is not None:
                corpus = min(corpus, corpus_limit)
                if corpus <= 0:
                    raise WorkloadError(
                        f"field {i}: corpus_limit leaves no ids"
                    )
            samplers.append(
                ZipfSampler(
                    corpus,
                    f.alpha if alpha is None else alpha,
                    seed=(self.seed + seed_offset) * 31 + i,
                )
            )
        return samplers


def poisson_arrival_times(
    rng: np.random.Generator, phases: Sequence[Phase]
) -> np.ndarray:
    """Exact arrivals of a piecewise-constant Poisson process.

    Per segment the arrival count is Poisson(rate * duration) and the
    instants are sorted uniforms — the order-statistics characterisation
    of the Poisson process — so the whole schedule is two vectorised
    draws per phase.
    """
    parts = []
    for phase in phases:
        n = int(rng.poisson(phase.rate * phase.duration)) if phase.rate else 0
        if n:
            parts.append(np.sort(rng.uniform(phase.start, phase.end, n)))
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(parts)


# hot-path: vectorized
def draw_feature_cube(
    samplers: Sequence[ZipfSampler],
    count: int,
    ids_per_field: int,
) -> np.ndarray:
    """``(count, tables, k)`` id cube, one vectorised draw per field.

    Mirrors ``_FeatureSource.draw_batch`` so scenario cubes are
    format-identical to the steady-state arrival generators'.
    """
    cols = [
        s.sample(count * ids_per_field).reshape(count, ids_per_field)
        for s in samplers
    ]
    return np.stack(cols, axis=1)


def assemble_requests(times: np.ndarray, cube: np.ndarray) -> List[Request]:
    """Positional :class:`Request` objects over an arrival/feature pair,
    each holding its row of ``cube``."""
    return [
        Request(
            request_id=i,
            arrival_time=float(times[i]),
            feature_ids=None,
            source=(cube, i),
        )
        for i in range(len(times))
    ]


def validate_load(load: ScenarioLoad, dataset) -> None:
    """Structural checks every scenario output must pass.

    * request ids are positions (0..n-1) and arrivals are nondecreasing;
    * every feature id a request is served is inside its field's
      declared corpus — phase boundaries must never emit out-of-spec ids;
    * tenant attribution (when present) covers every request, and every
      SLO budget is positive.

    Raises :class:`~repro.errors.WorkloadError` on the first violation.
    """
    requests = load.requests
    fields = dataset.fields
    columns = request_columns(requests)
    ids = columns.request_ids
    moved = np.flatnonzero(ids != np.arange(len(ids)))
    if len(moved):
        i = int(moved[0])
        raise WorkloadError(f"request {i}: id {int(ids[i])} is not positional")
    back = np.flatnonzero(np.diff(columns.arrivals) < 0)
    if len(back):
        raise WorkloadError(
            f"request {int(back[0]) + 1}: arrivals went backwards"
        )
    cube = columns.cube
    if len(ids) and cube.shape[1] != len(fields):
        raise WorkloadError(
            f"requests of {cube.shape[1]} tables: need one id array per "
            f"field ({len(fields)})"
        )
    # An empty list's cube has no tables, hence nothing to check.
    for t, f in enumerate(fields[:cube.shape[1]]):  # lint: allow-loop (O(fields))
        served = cube[columns.rows, t]
        over = np.flatnonzero((served >= f.corpus_size).any(axis=1))
        if len(over):
            i = int(over[0])
            raise WorkloadError(
                f"request {i}, field {t}: id {int(served[i].max())} "
                f"outside corpus {f.corpus_size}"
            )
    if load.tenant_of is not None:
        if len(load.tenant_of) < len(requests):
            raise WorkloadError("tenant_of does not cover every request")
        for tenant, budget in load.tenant_slos.items():
            if budget <= 0:
                raise WorkloadError(
                    f"tenant {tenant!r}: SLO budget must be positive"
                )


__all__ = [
    "Phase",
    "Scenario",
    "ScenarioLoad",
    "assemble_requests",
    "draw_feature_cube",
    "poisson_arrival_times",
    "validate_load",
]
