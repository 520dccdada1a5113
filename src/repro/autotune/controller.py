"""The closed-loop controller: windows in, guarded actions out.

Control law (deterministic, rule-based — the "online model" of arXiv
2511.08568 reduced to an auditable policy):

* **Drift boost.**  A flagged working-set shift (the collector's
  Jensen-Shannon ``drift_flag``) opens a *boost* of ``boost_windows``
  windows: admission goes to ``boost_admission`` (catch the new head
  fast), tier thresholds drop to ``boost_thresholds`` (let the new head
  reach fp32 quickly), optionally eviction cuts deeper.  Re-flagged
  drift re-arms the boost; expiry reverts every boosted knob to its
  pre-boost (cruise) value.
* **Cruise guards.**  Outside a boost: an SLA guard steps admission
  down when window SLA attainment is below target (insert work is the
  shed-able part of the serving path); a churn guard steps it down when
  evictions chase inserts at low hit rate (the cache is thrashing
  without paying off); a recovery rule steps admission back up when the
  window is healthy.
* **Tier rebalance.**  When the fp32 class of a dimension is nearly
  full while its int8 class has ample free slots, a slice of the int8
  byte share is transferred to fp32 (and vice versa never — precision
  only moves *up* under pressure; the eviction path demotes on its own).

Every proposal is rate-limited (per-kind cooldown in windows),
hysteresis-guarded (sub-``hysteresis`` admission deltas are noise), and
bounds-clamped, and resolves to exactly one of the three outcome
counters — see :mod:`repro.autotune.actions`.

Actions are *applied between batches* (the serving loop calls
:meth:`AdaptiveController.on_batch_complete` right after folding the
batch into the collector), so a run with the controller disabled is
byte-identical to one without it: no knob moves mid-batch, no
``autotune.*`` metric is ever created.
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
    SET_WATERMARK,
    SUPPRESSED,
    TRANSFER_CAPACITY,
    Action,
    ActionRecord,
)


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the adaptive controller (all validated)."""

    #: Master switch: ``False`` makes the controller completely inert
    #: (no metrics, no knob writes — byte-identical to no controller).
    enabled: bool = True
    #: Windows a kind must wait after an executed action of that kind.
    cooldown_windows: int = 2
    #: Minimum admission-probability delta worth applying.
    hysteresis: float = 0.05
    #: Boost duration in windows after a drift flag.
    boost_windows: int = 3
    #: Admission probability during a boost.
    boost_admission: float = 1.0
    #: (hot_min_count, warm_min_count) during a boost.
    boost_thresholds: Tuple[int, int] = (2, 1)
    #: Optional deeper eviction watermark during a boost.
    boost_evict_low_watermark: Optional[float] = None
    #: Lower bound the SLA/churn guards may push admission to.
    min_admission: float = 0.1
    #: Multiplicative step of the admission guards (down: ``p*(1-s)``).
    admission_step: float = 0.25
    #: Window SLA attainment below which the SLA guard fires.
    sla_target: float = 0.99
    #: Hit rate below which insert/evict churn counts as thrashing.
    churn_hit_rate: float = 0.2
    #: Evictions-to-inserts ratio above which churn counts as thrashing.
    churn_ratio: float = 0.9
    #: Fraction of the donor tier's capacity moved per rebalance.
    rebalance_fraction: float = 0.10
    #: fp32 free-slot fraction below which a rebalance is considered.
    rebalance_free_low: float = 0.05
    #: int8 free-slot fraction above which it can donate capacity.
    rebalance_free_high: float = 0.30
    #: Hit-rate drop below the trailing EMA that counts as a working-set
    #: shift (the within-table complement of the cross-table JS flag —
    #: a flash-crowd head rotation keeps the table mix constant and is
    #: invisible to Jensen-Shannon, but craters the hit rate).
    hit_collapse_delta: float = 0.15
    #: EMA smoothing for the trailing hit rate (weight of the new window).
    hit_ema_weight: float = 0.3
    #: Windows at the start of a run excluded from the hit-rate EMA —
    #: cold-start windows have structurally low hit rates and would drag
    #: the baseline down enough to mask a real collapse.
    warmup_windows: int = 3

    def __post_init__(self) -> None:
        if self.cooldown_windows < 0:
            raise ConfigError("cooldown_windows must be >= 0")
        if not 0.0 <= self.hysteresis < 1.0:
            raise ConfigError("hysteresis must be in [0, 1)")
        if self.boost_windows < 1:
            raise ConfigError("boost_windows must be >= 1")
        if not 0.0 < self.boost_admission <= 1.0:
            raise ConfigError("boost_admission must be in (0, 1]")
        hot, warm = self.boost_thresholds
        if not 0 < warm <= hot:
            raise ConfigError("boost_thresholds need 0 < warm <= hot")
        if not 0.0 < self.min_admission <= 1.0:
            raise ConfigError("min_admission must be in (0, 1]")
        if not 0.0 < self.admission_step < 1.0:
            raise ConfigError("admission_step must be in (0, 1)")
        if not 0.0 < self.sla_target <= 1.0:
            raise ConfigError("sla_target must be in (0, 1]")
        if not 0.0 < self.rebalance_fraction <= 1.0:
            raise ConfigError("rebalance_fraction must be in (0, 1]")
        if self.hit_collapse_delta <= 0.0:
            raise ConfigError("hit_collapse_delta must be positive")
        if not 0.0 < self.hit_ema_weight <= 1.0:
            raise ConfigError("hit_ema_weight must be in (0, 1]")
        if self.warmup_windows < 0:
            raise ConfigError("warmup_windows must be >= 0")


@dataclass
class _Knobs:
    """Pre-boost (cruise) knob values, restored on boost expiry."""

    admission: float = 1.0
    thresholds: Optional[Tuple[int, int]] = None
    watermark: Optional[float] = None


class AdaptiveController(Observable):
    """Window-driven retuner for one serving stack.

    Attach via the server's ``autotuner=`` constructor argument (the
    serving loop calls :meth:`on_batch_complete` after each batch).
    """

    def __init__(self, config: Optional[ControllerConfig] = None):
        self.config = config or ControllerConfig()
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
        if not self.config.enabled:
            # Disabled controllers attach inertly: no validation, no
            # metrics — the server must behave as if none was passed.
            return
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
        if not self.config.enabled or self._collector is None:
            return
        collector = self._collector
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

        cache = self._cache
        cfg = self.config
        self._windows_into_run += 1
        hit_rate = win.value("hit_rate", float("nan"))
        collapsed = (
            self._hit_ema is not None
            and not math.isnan(hit_rate)
            and hit_rate < self._hit_ema - cfg.hit_collapse_delta
        )
        if (
            not math.isnan(hit_rate)
            and not collapsed
            and self._windows_into_run > cfg.warmup_windows
        ):
            # A collapsed window is excluded from the baseline too: the
            # EMA tracks "normal" operation so a multi-window storm keeps
            # re-arming the boost instead of becoming the new normal.
            w = cfg.hit_ema_weight
            self._hit_ema = (
                hit_rate if self._hit_ema is None
                else (1.0 - w) * self._hit_ema + w * hit_rate
            )
        drifted = win.value("drift_flag", 0.0) > 0.0 or collapsed

        if self._boost_remaining > 0:
            if drifted:
                self._boost_remaining = cfg.boost_windows
                return
            self._boost_remaining -= 1
            if self._boost_remaining == 0:
                self._revert_boost(win)
            return

        if drifted:
            self._enter_boost(win)
            return

        self._cruise_guards(win)
        if cache.quantizing:
            self._tier_rebalance(win)

    def _enter_boost(self, win) -> None:
        cache, cfg = self._cache, self.config
        self._cruise = _Knobs(
            admission=cache.admission.probability,
            thresholds=(
                (cache.admission.hot_min_count, cache.admission.warm_min_count)
                if cache.quantizing else None
            ),
            watermark=(
                cache.evict_low_watermark
                if cfg.boost_evict_low_watermark is not None else None
            ),
        )
        self._boost_remaining = cfg.boost_windows
        self._propose(SET_ADMISSION, cfg.boost_admission, "drift-boost", win)
        if self._cruise.thresholds is not None:
            self._propose(
                SET_THRESHOLDS, cfg.boost_thresholds, "drift-boost", win
            )
        if self._cruise.watermark is not None:
            self._propose(
                SET_WATERMARK,
                cfg.boost_evict_low_watermark,
                "drift-boost",
                win,
            )

    def _revert_boost(self, win) -> None:
        cruise = self._cruise
        self._propose(SET_ADMISSION, cruise.admission, "boost-expired", win)
        if cruise.thresholds is not None:
            self._propose(
                SET_THRESHOLDS, cruise.thresholds, "boost-expired", win
            )
        if cruise.watermark is not None:
            self._propose(SET_WATERMARK, cruise.watermark, "boost-expired", win)

    def _cruise_guards(self, win) -> None:
        cache, cfg = self._cache, self.config
        current = cache.admission.probability
        sla = win.value("sla_attainment", float("nan"))
        sla_bad = not math.isnan(sla) and sla < cfg.sla_target

        inserts = win.value("inserts", 0.0)
        evictions = win.value("evictions", 0.0)
        hit_rate = win.value("hit_rate", float("nan"))
        churning = (
            inserts > 0
            and evictions >= cfg.churn_ratio * inserts
            and not math.isnan(hit_rate)
            and hit_rate < cfg.churn_hit_rate
        )

        if sla_bad:
            self._propose(
                SET_ADMISSION, current * (1.0 - cfg.admission_step),
                "sla-guard", win,
            )
        elif churning:
            self._propose(
                SET_ADMISSION, current * (1.0 - cfg.admission_step),
                "churn-guard", win,
            )
        elif current < 1.0:
            self._propose(
                SET_ADMISSION,
                min(1.0, current / (1.0 - cfg.admission_step)),
                "recover", win,
            )

    def _tier_rebalance(self, win) -> None:
        cache, cfg = self._cache, self.config
        pool = cache.pool
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
                fp32_free < cfg.rebalance_free_low
                and int8_free > cfg.rebalance_free_high
            ):
                self._propose(
                    TRANSFER_CAPACITY,
                    (dim, "int8", "fp32", cfg.rebalance_fraction),
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
        self._cooldowns[kind] = self.config.cooldown_windows
        self._resolve(
            action,
            CLAMPED if was_clamped else APPLIED,
            executed,
            "bounds" if was_clamped else "",
            win,
        )

    def _clamp(self, kind: str, value):
        cfg = self.config
        if kind == SET_ADMISSION:
            bounded = min(1.0, max(cfg.min_admission, float(value)))
            return bounded, bounded != float(value)
        if kind == SET_THRESHOLDS:
            hot, warm = int(value[0]), int(value[1])
            warm_b = max(1, warm)
            hot_b = max(warm_b, hot)
            return (hot_b, warm_b), (hot_b, warm_b) != (hot, warm)
        if kind == SET_WATERMARK:
            high = self._cache.config.evict_high_watermark
            bounded = min(high - 0.01, max(0.1, float(value)))
            return bounded, bounded != float(value)
        return value, False

    def _worth_applying(self, kind: str, executed) -> bool:
        cache = self._cache
        if kind == SET_ADMISSION:
            return (
                abs(executed - cache.admission.probability)
                >= self.config.hysteresis
            )
        if kind == SET_THRESHOLDS:
            return executed != (
                cache.admission.hot_min_count, cache.admission.warm_min_count
            )
        if kind == SET_WATERMARK:
            return abs(executed - cache.evict_low_watermark) >= 1e-9
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
        if kind == SET_WATERMARK:
            cache.set_evict_low_watermark(executed)
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


__all__ = ["AdaptiveController", "ControllerConfig"]
