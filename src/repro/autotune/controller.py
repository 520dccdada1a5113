"""The closed-loop controller: windows in, a drift boost out.

Control law (deterministic — the "online model" of arXiv 2511.08568
reduced to the one rule that moves a served result):

* **Trigger.**  A flagged working-set shift: the collector's
  Jensen-Shannon ``drift_flag``, or a window hit rate more than
  :data:`HIT_COLLAPSE_DELTA` below its trailing EMA.
* **Boost.**  The trigger opens a boost of :data:`BOOST_WINDOWS`
  windows: admission goes to :data:`BOOST_ADMISSION` (catch the new
  head fast) and, on a quantizing cache, tier thresholds drop to
  :data:`BOOST_THRESHOLDS` (let the new head reach fp32 quickly).  A
  trigger during a boost re-arms it; expiry restores the values the
  boost found.

The tunables are the module constants below; tests monkeypatch them.

Knobs move *between batches* (the serving loop calls
:meth:`AdaptiveController.on_batch_complete` right after folding the
batch into the collector), so none moves mid-batch, and a run in which
no boost opens is byte-identical to one without a controller: no
``autotune.*`` counter is ever created.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..core.workflow import FlecheEmbeddingLayer
from ..errors import ConfigError
from ..obs.registry import Observable


#: Boost duration in windows after a trigger.
BOOST_WINDOWS = 3
#: Admission probability during a boost.
BOOST_ADMISSION = 1.0
#: (hot_min_count, warm_min_count) during a boost.
BOOST_THRESHOLDS = (2, 1)
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


class AdaptiveController(Observable):
    """Window-driven drift boost for one serving stack.

    Attach via the server's ``autotuner=`` constructor argument (the
    serving loop calls :meth:`on_batch_complete` after each batch).
    """

    def __init__(self):
        self._collector = None
        self._cache = None
        self._tracer = None
        self._seen_windows = 0
        self._boost_remaining = 0
        #: ``(admission, thresholds or None)`` the open boost found;
        #: restored when it expires.
        self._found: Optional[Tuple[float, Optional[Tuple[int, int]]]] = None
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
        """Consume newly closed windows; move knobs between batches.
        Called by the serving loop after every batch fold — the serving
        path's per-batch overhead is one integer compare when no window
        closed."""
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
        triggered = win.value("drift_flag", 0.0) > 0.0 or collapsed

        if self._boost_remaining > 0:
            if triggered:
                self._boost_remaining = BOOST_WINDOWS
                return
            self._boost_remaining -= 1
            if self._boost_remaining == 0:
                self._set(*self._found)
        elif triggered:
            self._enter_boost(win)

    def _enter_boost(self, win) -> None:
        admission = self._cache.admission
        thresholds = (
            (admission.hot_min_count, admission.warm_min_count)
            if self._cache.quantizing else None
        )
        self._found = (admission.probability, thresholds)
        self._boost_remaining = BOOST_WINDOWS
        self._set(
            BOOST_ADMISSION,
            None if thresholds is None else BOOST_THRESHOLDS,
        )
        self.obs.inc("autotune.boosts")
        if self._tracer is not None:
            self._tracer.record(
                track="autotune",
                name="drift-boost",
                start=win.start,
                end=win.end,
                category="autotune",
                args={
                    "window": win.index,
                    "found": repr(self._found),
                },
            )

    def _set(self, admission: float, thresholds) -> None:
        cache = self._cache
        cache.set_admission_probability(admission)
        self.obs.set_gauge("autotune.admission_probability", admission)
        if thresholds is not None:
            cache.set_tier_thresholds(*thresholds)


__all__ = ["AdaptiveController"]
