"""The closed-loop controller: windows in, guarded actions out.

Control law (deterministic, rule-based — the "online model" of arXiv
2511.08568 reduced to an auditable policy):

* **Drift boost.**  A flagged working-set shift (the collector's
  Jensen-Shannon ``drift_flag``) opens a *boost* of
  :data:`BOOST_WINDOWS` windows: admission goes to
  :data:`BOOST_ADMISSION` (catch the new head fast) and tier thresholds
  drop to :data:`BOOST_THRESHOLDS` (let the new head reach fp32
  quickly).  Re-flagged drift re-arms the boost; expiry reverts every
  boosted knob to its pre-boost (cruise) value.
* **Cruise guards.**  Outside a boost: an SLA guard steps admission
  down when window SLA attainment is below :data:`SLA_TARGET` (insert
  work is the shed-able part of the serving path); a recovery rule steps
  admission back up when the window is healthy.
* **Tier rebalance.**  When the fp32 class of a dimension is nearly
  full while its int8 class has ample free slots, a slice of the int8
  byte share is transferred to fp32 (and vice versa never — precision
  only moves *up* under pressure; the eviction path demotes on its own).

The tunables are the module constants below; tests monkeypatch them.

Every proposal is rate-limited (per-kind cooldown in windows),
hysteresis-guarded (sub-:data:`HYSTERESIS` admission deltas are noise),
and bounds-clamped, and resolves to exactly one of the three outcome
counters — see :mod:`repro.autotune.actions`.

Actions are *applied between batches* (the serving loop calls
:meth:`AdaptiveController.on_batch_complete` right after folding the
batch into the collector), so no knob moves mid-batch, and a run in
which the controller proposes nothing is byte-identical to one without
it: no ``autotune.*`` counter is ever created.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.workflow import FlecheEmbeddingLayer
from ..errors import ConfigError
from ..obs.registry import Observable
from .actions import (
    APPLIED,
    CLAMPED,
    SET_ADMISSION,
    SET_THRESHOLDS,
    SUPPRESSED,
    TRANSFER_CAPACITY,
    Action,
    ActionRecord,
)


#: Windows a kind must wait after an executed action of that kind.
COOLDOWN_WINDOWS = 2
#: Minimum admission-probability delta worth applying.
HYSTERESIS = 0.05
#: Boost duration in windows after a drift flag.
BOOST_WINDOWS = 3
#: Admission probability during a boost.
BOOST_ADMISSION = 1.0
#: (hot_min_count, warm_min_count) during a boost.
BOOST_THRESHOLDS = (2, 1)
#: Lower bound the SLA guard may push admission to.
MIN_ADMISSION = 0.1
#: Multiplicative step of the admission guards (down: ``p*(1-s)``).
ADMISSION_STEP = 0.25
#: Window SLA attainment below which the SLA guard fires.
SLA_TARGET = 0.99
#: Fraction of the donor tier's capacity moved per rebalance.
REBALANCE_FRACTION = 0.10
#: fp32 free-slot fraction below which a rebalance is considered.
REBALANCE_FREE_LOW = 0.05
#: int8 free-slot fraction above which it can donate capacity.
REBALANCE_FREE_HIGH = 0.30
#: Hit-rate drop below the trailing EMA that counts as a working-set
#: shift (the within-table complement of the cross-table JS flag —
#: a flash-crowd head rotation keeps the table mix constant and is
#: invisible to Jensen-Shannon, but craters the hit rate).
HIT_COLLAPSE_DELTA = 0.15
#: EMA smoothing for the trailing hit rate (weight of the new window).
HIT_EMA_WEIGHT = 0.3
#: Windows at the start of a run excluded from the hit-rate EMA —
#: cold-start windows have structurally low hit rates and would drag
#: the baseline down enough to mask a real collapse.
WARMUP_WINDOWS = 3


@dataclass
class _Knobs:
    """Pre-boost (cruise) knob values, restored on boost expiry."""

    admission: float = 1.0
    thresholds: Optional[Tuple[int, int]] = None


class AdaptiveController(Observable):
    """Window-driven retuner for one serving stack.

    Attach via the server's ``autotuner=`` constructor argument (the
    serving loop calls :meth:`on_batch_complete` after each batch).
    """

    def __init__(self):
        self.history: List[ActionRecord] = []
        self._collector = None
        self._cache = None
        self._tracer = None
        self._seen_windows = 0
        self._cooldowns: Dict[str, int] = {}
        self._boost_remaining = 0
        self._cruise = _Knobs()
        self._hit_ema: Optional[float] = None
        self._windows_into_run = 0

    # ------------------------------------------------------------ attachment

    def attach(self, server) -> None:
        """Wire the controller to a server's collector, cache and tracer."""
        if server.collector is None:
            raise ConfigError(
                "adaptive controller needs a WindowedCollector on the server"
            )
        if not isinstance(server.scheme, FlecheEmbeddingLayer):
            raise ConfigError(
                "adaptive controller needs a FlatCache-backed scheme"
            )
        cache = server.scheme.cache
        self._collector = server.collector
        self._cache = cache
        self._tracer = server.tracer
        self.bind_observability(server.obs)
        self._seen_windows = server.collector.closed_windows
        # Surface the live knob immediately so the collector's
        # ``autotune_*`` series latch from the first window of the run.
        self.obs.set_gauge(
            "autotune.admission_probability", cache.admission.probability
        )

    # -------------------------------------------------------------- feedback

    # hot-path: vectorized
    def on_batch_complete(self, now: float) -> None:
        """Consume newly closed windows; apply guarded actions between
        batches.  Called by the serving loop after every batch fold —
        the serving path's per-batch overhead is one integer compare
        when no window closed."""
        collector = self._collector
        if collector is None:
            return
        closed = collector.closed_windows
        if closed < self._seen_windows:
            # The collector re-anchored for a fresh run (its clock
            # regressed); restart window consumption from zero.
            self._seen_windows = 0
            self._hit_ema = None
            self._windows_into_run = 0
        if closed == self._seen_windows:
            return
        windows = collector.windows
        offset = closed - len(windows)
        while self._seen_windows < closed:  # lint: allow-loop (control loop over newly closed windows, not per-key work)
            index = self._seen_windows
            self._seen_windows += 1
            if index < offset:
                continue
            self._on_window(windows[index - offset])

    # ---------------------------------------------------------------- policy

    def _on_window(self, win) -> None:
        for kind in list(self._cooldowns):
            self._cooldowns[kind] -= 1
            if self._cooldowns[kind] <= 0:
                del self._cooldowns[kind]

        self._windows_into_run += 1
        hit_rate = win.value("hit_rate", float("nan"))
        collapsed = (
            self._hit_ema is not None
            and not math.isnan(hit_rate)
            and hit_rate < self._hit_ema - HIT_COLLAPSE_DELTA
        )
        if (
            not math.isnan(hit_rate)
            and not collapsed
            and self._windows_into_run > WARMUP_WINDOWS
        ):
            # A collapsed window is excluded from the baseline too: the
            # EMA tracks "normal" operation so a multi-window storm keeps
            # re-arming the boost instead of becoming the new normal.
            w = HIT_EMA_WEIGHT
            self._hit_ema = (
                hit_rate if self._hit_ema is None
                else (1.0 - w) * self._hit_ema + w * hit_rate
            )
        drifted = win.value("drift_flag", 0.0) > 0.0 or collapsed

        if self._boost_remaining > 0:
            if drifted:
                self._boost_remaining = BOOST_WINDOWS
                return
            self._boost_remaining -= 1
            if self._boost_remaining == 0:
                self._revert_boost(win)
            return

        if drifted:
            self._enter_boost(win)
            return

        self._cruise_guards(win)
        if self._cache.quantizing:
            self._tier_rebalance(win)

    def _enter_boost(self, win) -> None:
        cache = self._cache
        self._cruise = _Knobs(
            admission=cache.admission.probability,
            thresholds=(
                (cache.admission.hot_min_count, cache.admission.warm_min_count)
                if cache.quantizing else None
            ),
        )
        self._boost_remaining = BOOST_WINDOWS
        self._propose(SET_ADMISSION, BOOST_ADMISSION, "drift-boost", win)
        if self._cruise.thresholds is not None:
            self._propose(SET_THRESHOLDS, BOOST_THRESHOLDS, "drift-boost", win)

    def _revert_boost(self, win) -> None:
        cruise = self._cruise
        self._propose(SET_ADMISSION, cruise.admission, "boost-expired", win)
        if cruise.thresholds is not None:
            self._propose(
                SET_THRESHOLDS, cruise.thresholds, "boost-expired", win
            )

    def _cruise_guards(self, win) -> None:
        current = self._cache.admission.probability
        sla = win.value("sla_attainment", float("nan"))
        if not math.isnan(sla) and sla < SLA_TARGET:
            self._propose(
                SET_ADMISSION, current * (1.0 - ADMISSION_STEP),
                "sla-guard", win,
            )
        elif current < 1.0:
            self._propose(
                SET_ADMISSION,
                min(1.0, current / (1.0 - ADMISSION_STEP)),
                "recover", win,
            )

    def _tier_rebalance(self, win) -> None:
        pool = self._cache.pool
        for dim in pool.dims():  # lint: allow-loop (O(dims) control scan)
            tiers = pool.tiers_of(dim)
            if "fp32" not in tiers or "int8" not in tiers:
                continue
            fp32_cap = pool.capacity_of(dim, "fp32")
            int8_cap = pool.capacity_of(dim, "int8")
            if fp32_cap == 0 or int8_cap == 0:
                continue
            fp32_free = pool.free_of(dim, "fp32") / fp32_cap
            int8_free = pool.free_of(dim, "int8") / int8_cap
            if (
                fp32_free < REBALANCE_FREE_LOW
                and int8_free > REBALANCE_FREE_HIGH
            ):
                self._propose(
                    TRANSFER_CAPACITY,
                    (dim, "int8", "fp32", REBALANCE_FRACTION),
                    "fp32-pressure", win,
                )

    # --------------------------------------------------------------- actions

    def _propose(self, kind: str, value, reason: str, win) -> None:
        """Resolve one proposal through cooldown -> clamp -> hysteresis
        -> execute, incrementing exactly one outcome counter."""
        obs = self.obs
        obs.inc("autotune.proposed")
        action = Action(kind=kind, value=value, reason=reason, window=win.index)

        if kind in self._cooldowns:
            self._resolve(action, SUPPRESSED, None, "cooldown", win)
            return

        executed, was_clamped = self._clamp(kind, value)
        if not self._worth_applying(kind, executed):
            self._resolve(action, SUPPRESSED, None, "hysteresis", win)
            return

        effective = self._execute(kind, executed)
        if not effective:
            self._resolve(action, SUPPRESSED, None, "no-effect", win)
            return
        self._cooldowns[kind] = COOLDOWN_WINDOWS
        self._resolve(
            action,
            CLAMPED if was_clamped else APPLIED,
            executed,
            "bounds" if was_clamped else "",
            win,
        )

    def _clamp(self, kind: str, value):
        if kind == SET_ADMISSION:
            bounded = min(1.0, max(MIN_ADMISSION, float(value)))
            return bounded, bounded != float(value)
        if kind == SET_THRESHOLDS:
            hot, warm = int(value[0]), int(value[1])
            warm_b = max(1, warm)
            hot_b = max(warm_b, hot)
            return (hot_b, warm_b), (hot_b, warm_b) != (hot, warm)
        return value, False

    def _worth_applying(self, kind: str, executed) -> bool:
        cache = self._cache
        if kind == SET_ADMISSION:
            return abs(executed - cache.admission.probability) >= HYSTERESIS
        if kind == SET_THRESHOLDS:
            return executed != (
                cache.admission.hot_min_count, cache.admission.warm_min_count
            )
        return True

    def _execute(self, kind: str, executed) -> bool:
        """Run the retune; returns ``False`` when it had no effect."""
        cache = self._cache
        if kind == SET_ADMISSION:
            cache.set_admission_probability(executed)
            self.obs.set_gauge("autotune.admission_probability", executed)
            return True
        if kind == SET_THRESHOLDS:
            cache.set_tier_thresholds(*executed)
            return True
        if kind == TRANSFER_CAPACITY:
            dim, from_tier, to_tier, fraction = executed
            retired, grown = cache.transfer_tier_capacity(
                dim, from_tier, to_tier, fraction
            )
            return retired > 0
        raise ConfigError(f"unknown action kind {kind!r}")

    def _resolve(
        self, action: Action, outcome: str, executed, detail: str, win
    ) -> None:
        self.obs.inc(f"autotune.{outcome}")
        self.history.append(
            ActionRecord(
                action=action, outcome=outcome, executed=executed,
                detail=detail,
            )
        )
        if self._tracer is not None:
            self._tracer.record(
                track="autotune",
                name=f"{action.kind}:{outcome}",
                start=win.start,
                end=win.end,
                category="autotune",
                args={
                    "reason": action.reason,
                    "detail": detail,
                    "value": repr(action.value),
                    "window": win.index,
                },
            )


__all__ = ["AdaptiveController"]
