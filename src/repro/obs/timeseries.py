"""Windowed time-series collection over the metrics registry.

The :class:`~repro.obs.registry.MetricsRegistry` (PR 3) is a *point in
time*: it can say how many hits a run produced, but not whether the hit
rate decayed mid-run — which is exactly the drift the paper's §3.1
motivates (embedding hotspots shift across tables over time).  The
:class:`WindowedCollector` closes that gap: driven by the **simulated
clock** (never wall time, so the series are byte-deterministic), it
slices a serving run into fixed windows and captures, per window,

* the delta of every registry counter (hits, misses, inserts, evictions,
  coalesced keys, tier traffic, fault-path activity, ...);
* the per-request latency distribution (p50/p99/mean) and SLA attainment
  against a configured budget;
* per-table traffic and hit distributions (from the labelled
  ``cache.table_*`` counters the engine records);
* a **hotspot-drift** score: the Jensen-Shannon divergence between this
  window's per-table hit distribution and the previous one, flagged when
  it exceeds a threshold — a working-set shift detector.

Windows land in a bounded ring buffer (:attr:`WindowedCollector.windows`)
so a long run keeps constant memory; an attached
:class:`~repro.obs.alerts.SloEngine` is evaluated at every window
boundary, giving burn-rate alerts a deterministic time axis.

Attribution convention: a batch's counter activity belongs to the window
containing its **completion instant** — the serving loop calls
:meth:`observe_batch` once per finished batch, in nondecreasing completion
order, and the collector folds the counter delta since the previous call.
Summed over windows, the deltas reproduce the run's registry diff exactly
(no activity is dropped or double counted).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigError, SimulationError
from .registry import MetricKey, MetricsRegistry

#: Series derived purely from the request stream — arrival times, batch
#: composition, per-request latencies, and the cache traffic those
#: requests caused.  At non-saturating load (no inter-batch overlap) they
#: are identical across pipeline depths; resource-derived series (stalls,
#: drift timing of overlapped counters) need not be.
WORKLOAD_SERIES: Tuple[str, ...] = (
    "requests", "batches", "latency_p50_s", "latency_p99_s",
    "latency_mean_s", "sla_attainment", "sla_bad", "hits", "misses",
    "hit_rate",
)

#: Default ``le`` bucket bounds for the serving latency histogram
#: (seconds); declared on the registry by the serving loop so the
#: OpenMetrics exposition can render a real histogram.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 1e-1,
)


def jensen_shannon(p: Dict[str, float], q: Dict[str, float]) -> float:
    """Jensen-Shannon divergence (base 2, in ``[0, 1]``) of two
    un-normalised non-negative distributions keyed by category."""
    total_p = sum(p.values())
    total_q = sum(q.values())
    if total_p <= 0 or total_q <= 0:
        return float("nan")
    divergence = 0.0
    # Sorted, so the float sum's order does not follow PYTHONHASHSEED.
    for key in sorted(set(p) | set(q)):
        pi = p.get(key, 0.0) / total_p
        qi = q.get(key, 0.0) / total_q
        mi = 0.5 * (pi + qi)
        if pi > 0:
            divergence += 0.5 * pi * math.log2(pi / mi)
        if qi > 0:
            divergence += 0.5 * qi * math.log2(qi / mi)
    # Clamp float fuzz so the score stays in [0, 1] exactly.
    return min(max(divergence, 0.0), 1.0)


def _sanitize(value: object) -> object:
    """JSON-strict form: non-finite floats become ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass
class WindowRecord:
    """One closed collection window: ``[start, end)`` plus its series."""

    index: int
    start: float
    end: float
    #: True for the trailing window closed early by :meth:`flush` (its
    #: ``end`` is the flush instant, not a window-grid boundary).
    partial: bool = False
    values: Dict[str, float] = field(default_factory=dict)

    @property
    def span(self) -> float:
        return self.end - self.start

    def value(self, name: str, default: float = 0.0) -> float:
        """A series value; NaN entries resolve to ``default``."""
        out = self.values.get(name, default)
        if isinstance(out, float) and math.isnan(out):
            return default
        return out

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "partial": self.partial,
            "values": {k: _sanitize(v) for k, v in sorted(self.values.items())},
        }


#: Jensen-Shannon divergence between consecutive windows' per-table hit
#: distributions above which a window is flagged as a working-set shift.
DRIFT_THRESHOLD = 0.08
#: Ring-buffer depth of a collector: the oldest windows are dropped.
CAPACITY = 512


class WindowedCollector:
    """Captures per-window registry deltas on the simulated clock.

    Parameters:
        window: window width in simulated seconds.
        sla_budget: per-request latency budget; enables the
            ``sla_attainment`` / ``sla_bad`` series.
        engine: optional :class:`~repro.obs.alerts.SloEngine`, evaluated
            at every window close.
        staleness_versions: model-version-lag budget; enables the
            ``refresh_stale`` / ``refresh_observed`` series a staleness
            SLO burns against (a window is *stale* when the replica's
            version lag exceeds the budget at the window close).
    """

    def __init__(
        self,
        window: float = 1e-3,
        sla_budget: Optional[float] = None,
        engine=None,
        staleness_versions: Optional[float] = None,
    ) -> None:
        if window <= 0:
            raise ConfigError("collector window must be positive")
        if sla_budget is not None and sla_budget <= 0:
            raise ConfigError("SLA budget must be positive")
        if staleness_versions is not None and staleness_versions < 0:
            raise ConfigError("staleness budget must be >= 0")
        self.window = float(window)
        self.sla_budget = sla_budget
        self.engine = engine
        self.staleness_versions = staleness_versions
        #: Latches once any ``refresh.*`` metric appears in the registry;
        #: the refresh series are emitted only then, so runs without the
        #: refresh subsystem produce byte-identical ``series.json``.
        self._refresh_seen = False
        #: Same latch for request tracing: ``reqtrace_*`` series appear
        #: only when a RequestTracer has folded counters into the
        #: registry, keeping tracing-free ``series.json`` byte-identical.
        self._reqtrace_seen = False
        #: Same latch for the adaptive controller: ``autotune_*`` series
        #: appear only once any ``autotune.*`` metric exists, so
        #: controller-off runs produce byte-identical ``series.json``.
        self._autotune_seen = False
        #: Multi-tenant attribution: request position -> tenant name, and
        #: per-tenant SLA budgets.  ``None`` (the default) emits no
        #: per-tenant series at all.
        self._tenant_of: Optional[Sequence[str]] = None
        self._tenant_slos: Dict[str, float] = {}
        self._tenant_latencies: Dict[str, List[float]] = {}
        self.windows: Deque[WindowRecord] = deque(maxlen=CAPACITY)
        #: ``(window index, divergence)`` of every flagged working-set shift.
        self.drift_events: List[Tuple[int, float]] = []
        #: Total windows ever closed (>= ``len(windows)`` once the ring wraps).
        self.closed_windows = 0
        self._registry: Optional[MetricsRegistry] = None
        self._prev: Dict[MetricKey, Union[int, float]] = {}
        self._acc: Dict[MetricKey, float] = {}
        self._latencies: List[float] = []
        self._win_start = 0.0
        self._index = 0
        self.watermark = 0.0
        self._last_dist: Optional[Dict[str, float]] = None

    # ----------------------------------------------------------------- setup

    @property
    def registry(self) -> Optional[MetricsRegistry]:
        """The bound registry, or ``None`` before :meth:`bind`."""
        return self._registry

    def bind(self, registry: MetricsRegistry) -> "WindowedCollector":
        """Attach to ``registry`` and reset the window grid to 0."""
        self._registry = registry
        self.reset()
        return self

    def reset(self, start: float = 0.0) -> None:
        """Clear every window and re-anchor the grid at ``start``."""
        if self._registry is None:
            raise ConfigError("collector is not bound to a registry")
        self.windows.clear()
        self.drift_events.clear()
        self.closed_windows = 0
        self._acc = {}
        self._latencies = []
        self._prev = self._registry.counter_state()
        self._win_start = math.floor(start / self.window) * self.window
        self._index = 0
        self.watermark = start
        self._last_dist = None
        self._refresh_seen = False
        self._reqtrace_seen = False
        self._autotune_seen = False
        self._tenant_latencies = {}

    def begin_run(self, first_arrival: float) -> None:
        """Align the collector with a serving run starting at
        ``first_arrival``.

        Serving runs are independent simulations whose clocks restart near
        zero; when time regresses below the watermark the collector
        re-anchors (fresh series), otherwise it keeps accumulating — so a
        request stream split across several ``serve`` calls stays one
        continuous series.
        """
        if self._registry is None:
            raise ConfigError("collector is not bound to a registry")
        if first_arrival < self.watermark:
            self.reset(first_arrival)
        else:
            # Counter activity between runs (e.g. warmup audits) must not
            # leak into the first window of this run.
            self._prev = self._registry.counter_state()

    def set_tenancy(
        self,
        tenant_of: Optional[Sequence[str]],
        slos: Optional[Dict[str, float]] = None,
    ) -> None:
        """Enable per-tenant SLA attribution for the next serving run.

        Args:
            tenant_of: tenant name per request *position* (request ids are
                positions in the arrival stream), or ``None`` to disable
                tenancy entirely (no per-tenant series emitted).
            slos: per-tenant latency budgets; tenants without an entry
                fall back to the collector-wide ``sla_budget``.

        Serving loops must then pass ``first_request`` to
        :meth:`observe_batch` so each batch's latencies can be attributed.
        """
        if tenant_of is None:
            self._tenant_of = None
            self._tenant_slos = {}
            self._tenant_latencies = {}
            return
        slos = dict(slos or {})
        for tenant, budget in slos.items():
            if budget <= 0:
                raise ConfigError(
                    f"tenant {tenant!r}: SLA budget must be positive"
                )
        self._tenant_of = tenant_of
        self._tenant_slos = slos
        self._tenant_latencies = {}

    # ------------------------------------------------------------- recording

    def observe_batch(
        self,
        now: float,
        latencies: Sequence[float] = (),
        first_request: Optional[int] = None,
    ) -> None:
        """Fold one completed batch: registry delta + request latencies.

        ``now`` is the batch's completion instant on the simulated clock;
        calls must be nondecreasing in ``now`` (the serving loop completes
        batches in clock order on the serial GPU resource).
        ``first_request`` is the arrival-stream position of the batch's
        first request — needed only under :meth:`set_tenancy`, where
        ``latencies[j]`` is attributed to ``tenant_of[first_request + j]``
        (batches partition the stream contiguously in arrival order).
        """
        if self._registry is None:
            raise ConfigError("collector is not bound to a registry")
        if now < self.watermark - 1e-12:
            raise SimulationError(
                f"collector time went backwards: {now:g} < {self.watermark:g}"
            )
        self._roll(now)
        self._fold_delta()
        self._latencies.extend(float(v) for v in latencies)
        if self._tenant_of is not None and first_request is not None:
            buckets = self._tenant_latencies
            tenant_of = self._tenant_of
            for j, value in enumerate(latencies):
                tenant = tenant_of[first_request + j]
                buckets.setdefault(tenant, []).append(float(value))
        self.watermark = max(self.watermark, now)

    def advance(self, now: float) -> None:
        """Advance the clock without folding a batch (idle time)."""
        if self._registry is None:
            raise ConfigError("collector is not bound to a registry")
        if now <= self.watermark:
            return
        self._roll(now)
        self.watermark = now

    def flush(self, now: Optional[float] = None) -> None:
        """Close every complete window up to ``now`` plus the trailing
        partial one (if it saw any time), so run-final state — e.g. an
        alert resolving right before the stream ends — is visible.

        Residual counter activity since the last batch (retire sweeps,
        audit hooks) is folded into the window containing the watermark
        *before* any window closes, so the summed window deltas reproduce
        the run's registry diff exactly — even when ``now`` lands on a
        window boundary and no trailing partial window remains.
        """
        if self._registry is None:
            raise ConfigError("collector is not bound to a registry")
        end = self.watermark if now is None else max(now, self.watermark)
        self._fold_delta()
        self._roll(end)
        self.watermark = end
        if end > self._win_start:
            self._close(end, partial=True)

    # --------------------------------------------------------------- windows

    def _fold_delta(self) -> None:
        """Accumulate the registry counter delta since the previous fold."""
        current = self._registry.counter_state()
        previous = self._prev
        acc = self._acc
        for key, value in current.items():
            delta = value - previous.get(key, 0)
            if delta:
                acc[key] = acc.get(key, 0) + delta
        self._prev = current

    def _roll(self, now: float) -> None:
        while now >= self._win_start + self.window:
            self._close(self._win_start + self.window, partial=False)

    def _close(self, end: float, partial: bool) -> None:
        record = WindowRecord(
            index=self._index,
            start=self._win_start,
            end=end,
            partial=partial,
            values=self._window_values(end - self._win_start),
        )
        self.windows.append(record)
        self.closed_windows += 1
        self._index += 1
        self._win_start = end if partial else self._win_start + self.window
        self._acc = {}
        self._latencies = []
        self._tenant_latencies = {}
        if self.engine is not None:
            self.engine.evaluate(self.windows)

    # ---------------------------------------------------------------- series

    def _acc_total(self, name: str) -> float:
        return sum(v for (n, _), v in self._acc.items() if n == name)

    def _acc_labelled(self, name: str, label: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (n, labelset), value in self._acc.items():
            if n != name:
                continue
            for key, val in labelset:
                if key == label:
                    out[val] = out.get(val, 0.0) + value
        return out

    def _window_values(self, span: float) -> Dict[str, float]:
        nan = float("nan")
        latencies = self._latencies
        values: Dict[str, float] = {
            "requests": float(len(latencies)),
            "batches": self._acc_total("serving.batches"),
        }
        if latencies:
            arr = np.asarray(latencies)
            values["latency_p50_s"] = float(np.percentile(arr, 50.0))
            values["latency_p99_s"] = float(np.percentile(arr, 99.0))
            values["latency_mean_s"] = float(arr.mean())
        else:
            values["latency_p50_s"] = nan
            values["latency_p99_s"] = nan
            values["latency_mean_s"] = nan
        if self.sla_budget is not None:
            good = sum(1 for v in latencies if v <= self.sla_budget)
            values["sla_bad"] = float(len(latencies) - good)
            values["sla_attainment"] = (
                good / len(latencies) if latencies else nan
            )

        # Multi-tenant attribution (set_tenancy): per-tenant request
        # counts and SLA attainment against each tenant's own budget.
        # Emitted only for tenants active in the window, and not at all
        # without tenancy — series stay byte-identical otherwise.
        if self._tenant_of is not None:
            for tenant in sorted(self._tenant_latencies):
                lats = self._tenant_latencies[tenant]
                values[f"requests{{tenant={tenant}}}"] = float(len(lats))
                budget = self._tenant_slos.get(tenant, self.sla_budget)
                if budget is not None and lats:
                    good = sum(1 for v in lats if v <= budget)
                    values[f"sla{{tenant={tenant}}}"] = good / len(lats)

        hits = self._acc_total("cache.hits")
        misses = self._acc_total("cache.misses")
        values["hits"] = hits
        values["misses"] = misses
        values["hit_rate"] = hits / (hits + misses) if hits + misses else nan
        values["unified_hits"] = self._acc_total("cache.unified_hits")

        inserts = self._acc_total("cache.inserted")
        evictions = self._acc_total("cache.evictions")
        values["inserts"] = inserts
        values["evictions"] = evictions
        values["demotions"] = self._acc_total("cache.demotions")
        values["insert_pressure"] = inserts / span if span > 0 else nan
        values["evict_pressure"] = evictions / span if span > 0 else nan

        coalesced = self._acc_total("cache.coalesced_keys")
        values["coalesced_keys"] = coalesced
        values["coalesce_rate"] = coalesced / misses if misses else nan

        dram_hits = self._acc_total("tier.dram_hits")
        dram_misses = self._acc_total("tier.dram_misses")
        values["dram_hit_rate"] = (
            dram_hits / (dram_hits + dram_misses)
            if dram_hits + dram_misses else nan
        )
        values["remote_fetches"] = self._acc_total("tier.remote_fetches")
        values["remote_failures"] = self._acc_total("tier.remote_failures")
        values["degraded_keys"] = self._acc_total("tier.degraded_keys")
        values["degraded_requests"] = self._acc_total(
            "serving.degraded_requests"
        )
        values["retries"] = self._acc_total("faults.retries")
        values["hedges_fired"] = self._acc_total("faults.hedges_fired")
        values["breaker_open_time_s"] = self._acc_total(
            "faults.breaker_open_time"
        )

        table_lookups = self._acc_labelled("cache.table_lookups", "table")
        table_hits = self._acc_labelled("cache.table_hits", "table")
        table_misses = self._acc_labelled("cache.table_misses", "table")
        for table, count in table_lookups.items():
            values[f"table_lookups{{table={table}}}"] = count
        for table, count in table_hits.items():
            values[f"table_hits{{table={table}}}"] = count
            denominator = count + table_misses.get(table, 0.0)
            values[f"table_hit_rate{{table={table}}}"] = (
                count / denominator if denominator else nan
            )

        # Model-refresh stream: emitted only once any refresh.* metric
        # exists, so refresh-free runs keep byte-identical series.
        if not self._refresh_seen and self._registry.has_prefix("refresh."):
            self._refresh_seen = True
        if self._refresh_seen:
            applied = self._acc_total("refresh.applied_keys")
            values["refresh_applied_keys"] = applied
            values["refresh_published_keys"] = self._acc_total(
                "refresh.published_keys"
            )
            values["refresh_dropped_keys"] = self._acc_total(
                "refresh.dropped_keys"
            )
            values["refresh_apply_rate"] = applied / span if span > 0 else nan
            lag = self._registry.gauge("refresh.version_lag")
            values["refresh_version_lag"] = lag
            values["refresh_staleness_s"] = self._registry.gauge(
                "refresh.staleness_s"
            )
            if self.staleness_versions is not None:
                values["refresh_observed"] = 1.0
                values["refresh_stale"] = (
                    1.0 if lag > self.staleness_versions else 0.0
                )

        # Request tracing: sampling pressure + per-cause SLA-miss
        # attribution, emitted only once a tracer has folded counters in
        # (same byte-identity contract as the refresh series above).
        if not self._reqtrace_seen and self._registry.has_prefix(
            "reqtrace."
        ):
            self._reqtrace_seen = True
        if self._reqtrace_seen:
            values["reqtrace_sampled"] = self._acc_total("reqtrace.sampled")
            values["reqtrace_dropped"] = self._acc_total("reqtrace.dropped")
            values["reqtrace_sla_violations"] = self._acc_total(
                "reqtrace.sla_violations"
            )
            for cause, count in sorted(self._acc_labelled(
                "reqtrace.rootcause", "cause"
            ).items()):
                values[f"rootcause{{cause={cause}}}"] = count

        # Adaptive controller: boosts opened this window plus the live
        # admission knob, emitted only once any ``autotune.*`` metric
        # exists (same byte-identity contract as refresh above).
        if not self._autotune_seen and self._registry.has_prefix(
            "autotune."
        ):
            self._autotune_seen = True
        if self._autotune_seen:
            values["autotune_boosts"] = self._acc_total("autotune.boosts")
            values["autotune_admission_probability"] = self._registry.gauge(
                "autotune.admission_probability"
            )

        # Hotspot drift: per-table hit distribution when the backend
        # attributes hits to tables, else the per-table traffic itself.
        dist = table_hits if sum(table_hits.values()) > 0 else table_lookups
        drift = nan
        if sum(dist.values()) > 0:
            if self._last_dist is not None:
                drift = jensen_shannon(dist, self._last_dist)
            self._last_dist = dist
        values["hotspot_drift"] = drift
        flagged = not math.isnan(drift) and drift > DRIFT_THRESHOLD
        values["drift_flag"] = 1.0 if flagged else 0.0
        if flagged:
            self.drift_events.append((self._index, drift))
        return values

    # -------------------------------------------------------------- querying

    def series(self, name: str) -> List[float]:
        """One named series across the retained windows (NaN where absent)."""
        return [w.values.get(name, float("nan")) for w in self.windows]

    def to_payload(self) -> dict:
        """JSON-ready artifact body (``series.json``)."""
        return {
            "kind": "series",
            "window_s": self.window,
            "capacity": self.windows.maxlen,
            "sla_budget_s": _sanitize(
                self.sla_budget if self.sla_budget is not None else float("nan")
            ),
            "drift_threshold": DRIFT_THRESHOLD,
            "staleness_versions": _sanitize(
                self.staleness_versions
                if self.staleness_versions is not None else float("nan")
            ),
            "closed_windows": self.closed_windows,
            "drift_events": [
                {"window": index, "divergence": score}
                for index, score in self.drift_events
            ],
            "windows": [w.to_dict() for w in self.windows],
        }
