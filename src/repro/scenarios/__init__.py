"""Adversarial workload scenarios (see ``docs/scenarios.md``).

Composable phased loads layered on :mod:`repro.workloads`: flash-crowd
hot-key storms, diurnal arrival envelopes, multi-tenant skew mixes with
per-tenant SLOs, and post-refresh cold-start floods.  Each produces a
:class:`ScenarioLoad` that plugs directly into the serving loop and
stresses exactly the knobs a static configuration has to get right.
"""

from .base import (
    Phase,
    Scenario,
    ScenarioLoad,
    assemble_requests,
    draw_feature_cube,
    poisson_arrival_times,
    validate_load,
)
from .catalogue import (
    DEFAULT_TENANTS,
    SCENARIOS,
    ColdStartFloodScenario,
    DiurnalScenario,
    FlashCrowdScenario,
    MultiTenantScenario,
    TenantSpec,
    build_scenario,
)

__all__ = [
    "Phase",
    "Scenario",
    "ScenarioLoad",
    "assemble_requests",
    "draw_feature_cube",
    "poisson_arrival_times",
    "validate_load",
    "FlashCrowdScenario",
    "DiurnalScenario",
    "MultiTenantScenario",
    "ColdStartFloodScenario",
    "TenantSpec",
    "DEFAULT_TENANTS",
    "SCENARIOS",
    "build_scenario",
]
