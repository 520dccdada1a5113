"""Declarative SLOs and burn-rate alerting over windowed series.

An :class:`Slo` states an objective over a ratio of two series from the
:class:`~repro.obs.timeseries.WindowedCollector` windows — e.g. "at least
99% of requests meet the latency budget" (``bad = sla_bad``,
``total = requests``).  A :class:`BurnRateRule` watches how fast the SLO's
error budget is being consumed: the **burn rate** over a lookback of
recent windows is

    burn = (bad / total) / (1 - objective)

so ``burn == 1`` means errors arrive exactly at the rate that exhausts
the budget over the SLO period, and ``burn == 10`` means ten times
faster.  Rules fire when the burn rate over their lookback reaches a
threshold, and resolve after a configured number of consecutive calm
windows — the classic multi-window burn-rate pattern (fast rules catch
outages in one or two windows; slow rules catch smouldering
degradation).

Alerts are typed :class:`Alert` records with a firing -> resolved
lifecycle stamped in **simulated time** (window-end instants), so a
fault-injection run can measure time-to-detect and time-to-recover
deterministically, and the whole history serialises to ``alerts.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigError
from .timeseries import WindowRecord

#: Alert lifecycle states.
FIRING = "firing"
RESOLVED = "resolved"


@dataclass(frozen=True)
class Slo:
    """A service-level objective over a windowed bad/total ratio."""

    name: str
    #: Target good fraction in (0, 1): 0.99 = "99% of requests are good".
    objective: float
    #: Series counting the bad events per window.
    bad_series: str = "sla_bad"
    #: Series counting the total events per window.
    total_series: str = "requests"

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ConfigError(
                f"SLO {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnRateRule:
    """Fires when an SLO's burn rate over ``lookback`` windows reaches
    ``threshold``; resolves after ``resolve_after`` calm windows."""

    name: str
    slo: str
    lookback: int = 1
    threshold: float = 10.0
    resolve_after: int = 3

    def __post_init__(self) -> None:
        if self.lookback < 1:
            raise ConfigError(f"rule {self.name!r}: lookback must be >= 1")
        if self.threshold <= 0:
            raise ConfigError(f"rule {self.name!r}: threshold must be > 0")
        if self.resolve_after < 1:
            raise ConfigError(
                f"rule {self.name!r}: resolve_after must be >= 1"
            )


@dataclass
class Alert:
    """One firing/resolved alert instance (simulated-time stamps)."""

    rule: str
    slo: str
    state: str
    fired_at: float
    fired_window: int
    burn_rate: float
    peak_burn_rate: float
    resolved_at: Optional[float] = None
    resolved_window: Optional[int] = None

    @property
    def firing(self) -> bool:
        return self.state == FIRING

    def duration(self) -> Optional[float]:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.fired_at

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "slo": self.slo,
            "state": self.state,
            "fired_at": self.fired_at,
            "fired_window": self.fired_window,
            "burn_rate": self.burn_rate,
            "peak_burn_rate": self.peak_burn_rate,
            "resolved_at": self.resolved_at,
            "resolved_window": self.resolved_window,
        }


class SloEngine:
    """Evaluates burn-rate rules at every window boundary.

    The :class:`~repro.obs.timeseries.WindowedCollector` calls
    :meth:`evaluate` after each window close with the retained window
    history; the engine maintains one active alert per rule plus the full
    alert history.
    """

    def __init__(
        self, slos: Sequence[Slo], rules: Sequence[BurnRateRule]
    ) -> None:
        self.slos: Dict[str, Slo] = {}
        for slo in slos:
            if slo.name in self.slos:
                raise ConfigError(f"duplicate SLO {slo.name!r}")
            self.slos[slo.name] = slo
        self.rules: List[BurnRateRule] = []
        seen = set()
        for rule in rules:
            if rule.name in seen:
                raise ConfigError(f"duplicate rule {rule.name!r}")
            if rule.slo not in self.slos:
                raise ConfigError(
                    f"rule {rule.name!r} references unknown SLO {rule.slo!r}"
                )
            seen.add(rule.name)
            self.rules.append(rule)
        self.alerts: List[Alert] = []
        self._active: Dict[str, Alert] = {}
        self._calm: Dict[str, int] = {}

    # ------------------------------------------------------------ evaluation

    def burn_rate(
        self, rule: BurnRateRule, windows: Sequence[WindowRecord]
    ) -> float:
        """Burn rate of ``rule`` over its lookback; 0 with no traffic."""
        slo = self.slos[rule.slo]
        recent = list(windows)[-rule.lookback:]
        bad = sum(w.value(slo.bad_series) for w in recent)
        total = sum(w.value(slo.total_series) for w in recent)
        if total <= 0:
            return 0.0
        return (bad / total) / slo.error_budget

    def evaluate(self, windows: Sequence[WindowRecord]) -> List[Alert]:
        """Run every rule against the window history.

        Returns the alerts that changed state at this boundary (newly
        fired or newly resolved); the full history stays in
        :attr:`alerts`.
        """
        if not windows:
            return []
        latest = windows[-1]
        changed: List[Alert] = []
        for rule in self.rules:
            burn = self.burn_rate(rule, windows)
            active = self._active.get(rule.name)
            if burn >= rule.threshold:
                self._calm[rule.name] = 0
                if active is None:
                    alert = Alert(
                        rule=rule.name,
                        slo=rule.slo,
                        state=FIRING,
                        fired_at=latest.end,
                        fired_window=latest.index,
                        burn_rate=burn,
                        peak_burn_rate=burn,
                    )
                    self.alerts.append(alert)
                    self._active[rule.name] = alert
                    changed.append(alert)
                else:
                    active.burn_rate = burn
                    active.peak_burn_rate = max(active.peak_burn_rate, burn)
            elif active is not None:
                calm = self._calm.get(rule.name, 0) + 1
                self._calm[rule.name] = calm
                active.burn_rate = burn
                if calm >= rule.resolve_after:
                    active.state = RESOLVED
                    active.resolved_at = latest.end
                    active.resolved_window = latest.index
                    del self._active[rule.name]
                    self._calm[rule.name] = 0
                    changed.append(active)
        return changed

    # -------------------------------------------------------------- querying

    @property
    def firing(self) -> List[Alert]:
        """Currently-firing alerts, in rule order."""
        return [self._active[r.name] for r in self.rules
                if r.name in self._active]

    def history(self, rule: Optional[str] = None) -> List[Alert]:
        if rule is None:
            return list(self.alerts)
        return [a for a in self.alerts if a.rule == rule]

    def time_to_detect(self, event_start: float) -> Optional[float]:
        """Delay from ``event_start`` to the first alert fired at or after
        it; ``None`` if no alert fired."""
        fired = [a.fired_at - event_start for a in self.alerts
                 if a.fired_at >= event_start]
        return min(fired) if fired else None

    def time_to_recover(self, event_end: float) -> Optional[float]:
        """Delay from ``event_end`` to the last resolution at or after it;
        ``None`` while any alert is still open."""
        if any(a.resolved_at is None for a in self.alerts):
            return None
        resolved = [a.resolved_at - event_end for a in self.alerts
                    if a.resolved_at is not None and a.resolved_at >= event_end]
        return max(resolved) if resolved else None

    def to_payload(self) -> dict:
        """JSON-ready artifact body (``alerts.json``)."""
        return {
            "kind": "alerts",
            "slos": [asdict(s) for s in self.slos.values()],
            "rules": [asdict(r) for r in self.rules],
            "firing": [a.rule for a in self.firing],
            "alerts": [a.to_dict() for a in self.alerts],
        }


def default_serving_slos(sla_budget: float) -> SloEngine:
    """The standard serving SLO catalogue.

    * ``latency``  — 99% of requests within ``sla_budget``; a fast rule
      (2-window lookback, burn 10x) catches outages, a slow rule
      (12-window lookback, burn 2x) catches smouldering degradation.
    * ``degraded`` — at most 0.5% of requests served degraded
      (stale/default vectors) per window.
    """
    if sla_budget <= 0:
        raise ConfigError("SLA budget must be positive")
    slos = [
        Slo("latency", objective=0.99,
            bad_series="sla_bad", total_series="requests"),
        Slo("degraded", objective=0.995,
            bad_series="degraded_requests", total_series="requests"),
    ]
    rules = [
        BurnRateRule("latency-fast", "latency",
                     lookback=2, threshold=10.0, resolve_after=3),
        BurnRateRule("latency-slow", "latency",
                     lookback=12, threshold=2.0, resolve_after=6),
        BurnRateRule("degraded-fast", "degraded",
                     lookback=2, threshold=10.0, resolve_after=3),
    ]
    return SloEngine(slos, rules)


def default_refresh_slos(sla_budget: float) -> SloEngine:
    """The serving catalogue plus the model-staleness SLO.

    * everything :func:`default_serving_slos` declares, and
    * ``staleness`` — at least 95 % of windows must
      close with the replica's model-version lag inside the collector's
      ``staleness_versions`` budget (the ``refresh_stale`` /
      ``refresh_observed`` series).  A fast burn rule fires on a stuck
      update stream — e.g. an :class:`~repro.faults.schedule.UpdateLogOutage`
      — and resolves once the replica catches back up.

    Pair with a :class:`~repro.obs.timeseries.WindowedCollector`
    constructed with ``staleness_versions`` set, or the staleness series
    never exist and the SLO stays silent.
    """
    base = default_serving_slos(sla_budget)
    slos = list(base.slos.values()) + [
        Slo("staleness", objective=0.95,
            bad_series="refresh_stale", total_series="refresh_observed"),
    ]
    rules = list(base.rules) + [
        BurnRateRule("staleness-fast", "staleness",
                     lookback=2, threshold=10.0, resolve_after=3),
    ]
    return SloEngine(slos, rules)
