"""Typed actions of the adaptive controller.

Every retune the controller wants goes through one :class:`Action` and
resolves to exactly one outcome:

* ``applied`` — executed at the proposed value;
* ``suppressed`` — dropped by rate limiting (per-kind cooldown),
  hysteresis (change too small to matter), or because it would have had
  no effect;
* ``clamped`` — the value was pulled back into bounds and the clamped
  value was executed.

The registry counters mirror this split, giving the conservation law
``autotune.proposed == applied + suppressed + clamped`` (declared in the
global catalogue, :func:`repro.obs.registry.install_conservation_laws`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Action kinds — the controller's full vocabulary of retunes.
SET_ADMISSION = "set_admission"
#: value: float admission probability in (0, 1].
SET_THRESHOLDS = "set_thresholds"
#: value: (hot_min_count, warm_min_count) tier-assignment thresholds.
TRANSFER_CAPACITY = "transfer_capacity"
#: value: (dim, from_tier, to_tier, fraction) tier byte-share move.

KINDS = (SET_ADMISSION, SET_THRESHOLDS, TRANSFER_CAPACITY)

#: Outcome names, matching the ``autotune.*`` registry counters.
APPLIED = "applied"
SUPPRESSED = "suppressed"
CLAMPED = "clamped"
OUTCOMES = (APPLIED, SUPPRESSED, CLAMPED)


@dataclass(frozen=True)
class Action:
    """One proposed retune: what to change, to what, and why."""

    kind: str
    value: Any
    reason: str
    #: Global index of the collector window that motivated the proposal.
    window: int


@dataclass(frozen=True)
class ActionRecord:
    """An :class:`Action` plus how it resolved."""

    action: Action
    outcome: str
    #: The value actually executed — the proposal for ``applied``, the
    #: bounded value for ``clamped``, ``None`` for ``suppressed``.
    executed: Optional[Any]
    #: Human-readable resolution detail (e.g. which guard suppressed it).
    detail: str = ""


__all__ = [
    "Action",
    "ActionRecord",
    "KINDS",
    "SET_ADMISSION",
    "SET_THRESHOLDS",
    "TRANSFER_CAPACITY",
    "APPLIED",
    "SUPPRESSED",
    "CLAMPED",
    "OUTCOMES",
]
