"""Metrics registry with invariant-audit hooks.

One :class:`MetricsRegistry` is the single source of truth for every
counter the stack maintains: cache hit/miss accounting, per-tier fetch
counters, fault-path retries, coalescing traffic, pool occupancy.  The
engine owns the registry and binds it into the scheme, the cache, the
tiered store and the fault client, so the server, the benchmarks and the
tests all read the same numbers instead of keeping private tallies.

Three metric kinds:

* **counters** — monotonically increasing totals (``inc``),
* **gauges** — point-in-time levels refreshed by audit hooks (``set_gauge``),
* **histograms** — count/sum/min/max summaries (``observe``).

All three support labels (``registry.inc("tier.dram_hits", 3, table=0)``);
a metric *name* aggregates over its label sets via :meth:`MetricsRegistry.total`.

Snapshots are cheap dict copies; ``snapshot().diff(older)`` subtracts
counter/histogram totals so a serving run can report exactly the activity
it caused.  Snapshots serialise deterministically (sorted keys), which is
what the determinism regression test asserts byte-equality on.

Invariant audits come in two declarative flavours:

* :meth:`MetricsRegistry.add_conservation` — a conservation law between
  summed metric totals, e.g. ``lookups == hits + misses`` or
  ``pool.live + pool.free == pool.capacity``;
* :meth:`MetricsRegistry.add_check` — an arbitrary callable hook returning
  ``bool`` or ``(bool, detail)``; components use these both to validate
  internal state (pool slot accounting vs. a live index scan) and to
  refresh gauges right before the laws are evaluated.

``audit()`` returns the list of violations; ``check()`` raises
:class:`~repro.errors.AuditError` on the first violation.  The serving
loops audit at run entry and run exit, so every report is produced at a
verified barrier.
"""

from __future__ import annotations

import copy
import functools
import inspect
import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import AuditError, ConfigError

#: A canonicalised label set: sorted ``(key, value)`` pairs.
LabelSet = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelSet]

_OPS = ("==", "<=", ">=")
#: Tolerance for float-valued conservation laws (seconds-valued counters).
_TOL = 1e-9


def _labelset(labels: Dict[str, object]) -> LabelSet:
    # Hot path: the overwhelmingly common cases — no labels, one label —
    # skip the generator + sort machinery entirely.
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((key, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_key(name: str, labels: LabelSet) -> str:
    """Human/JSON form of a metric key: ``name{k=v,...}`` or plain name."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass(frozen=True)
class HistogramStats:
    """Count/sum/min/max summary of one observed series.

    When the owning registry declared bucket ``bounds`` for the metric
    (:meth:`MetricsRegistry.declare_buckets`), ``bucket_counts[i]`` holds
    how many observations fell into bucket ``i`` under the OpenMetrics
    ``le`` convention: the first bucket whose upper bound is ``>= value``
    (an observation *exactly on* a boundary counts in that boundary's
    bucket).  Observations above the last bound land in the implicit
    ``+Inf`` overflow bucket, ``count - sum(bucket_counts)``.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    #: Upper bucket bounds (``le`` semantics); empty = no buckets kept.
    bounds: Tuple[float, ...] = ()
    #: Per-bucket (non-cumulative) observation counts, same length as
    #: ``bounds``; the ``+Inf`` overflow bucket is implicit.
    bucket_counts: Tuple[int, ...] = ()

    def observe(self, value: float) -> "HistogramStats":
        buckets = self.bucket_counts
        if self.bounds:
            if not buckets:
                buckets = (0,) * len(self.bounds)
            index = bisect_left(self.bounds, value)
            if index < len(self.bounds):
                buckets = (buckets[:index] + (buckets[index] + 1,)
                           + buckets[index + 1:])
        return HistogramStats(
            count=self.count + 1,
            total=self.total + value,
            minimum=min(self.minimum, value),
            maximum=max(self.maximum, value),
            bounds=self.bounds,
            bucket_counts=buckets,
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs ending at ``+Inf``.

        Well-defined even for a bucketless histogram (a single ``+Inf``
        bucket holding every observation), which is what the OpenMetrics
        exposition renders.
        """
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts or
                                (0,) * len(self.bounds)):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"count": self.count, "sum": self.total}
        if self.count:
            out["mean"] = self.mean
            # Diffed histograms drop min/max (they do not subtract);
            # keep the JSON strict by omitting the infinite sentinels.
            if math.isfinite(self.minimum):
                out["min"] = self.minimum
            if math.isfinite(self.maximum):
                out["max"] = self.maximum
        if self.bounds:
            out["buckets"] = {
                f"le={bound:g}": count
                for bound, count in zip(
                    self.bounds, self.bucket_counts or (0,) * len(self.bounds)
                )
            }
        return out


@dataclass(frozen=True)
class Conservation:
    """A declarative conservation law over summed metric totals.

    ``sum(lhs) op sum(rhs)`` where each side is a tuple of metric names;
    a name resolves to its counter total, falling back to its gauge total
    (so pool-occupancy laws over gauges use the same machinery).
    """

    name: str
    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]
    op: str = "=="

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigError(f"conservation op must be one of {_OPS}, got {self.op!r}")

    def __deepcopy__(self, memo):
        return self  # frozen, immutable fields: safe to share across clones

    def holds(self, resolve: Callable[[str], float]) -> Tuple[bool, str]:
        left = sum([resolve(name) for name in self.lhs])
        right = sum([resolve(name) for name in self.rhs])
        if self.op == "==":
            ok = abs(left - right) <= _TOL
        elif self.op == "<=":
            ok = left <= right + _TOL
        else:
            ok = left + _TOL >= right
        detail = (f"{' + '.join(self.lhs)} {self.op} {' + '.join(self.rhs)}"
                  f" [{left:g} vs {right:g}]")
        return ok, detail


#: ``Conservation`` by value: every engine installs the same catalogue,
#: and a law is frozen, so a re-declared law builds no new object.
_law = functools.lru_cache(maxsize=256)(Conservation)


class _WeakHook:
    """A bound method held weakly through its owner.

    A component registers ``self._audit_x`` with the registry it is bound
    to, or ``self._invalidate_x`` with the store it reads.  Held strongly
    that is a cycle (component -> registry or store -> hook -> component)
    which only a generation-2 collection frees, so every restored server
    of a benchmark pass lingered.  ``weakref.WeakMethod`` cannot be
    deep-copied and a bare ``weakref.ref`` copies atomically — the
    clone's registry would audit the *original* component — so this
    holder's ``__deepcopy__`` rebinds to the clone of its owner.  Once
    the owner is gone a call does nothing and returns ``True`` (a passing
    audit).
    """

    __slots__ = ("_owner", "_function")

    def __init__(self, owner: object, function: Callable):
        self._owner = weakref.ref(owner)
        self._function = function

    def __call__(self, *args):
        owner = self._owner()
        if owner is None:
            return True
        return self._function(owner, *args)

    def __deepcopy__(self, memo):
        owner = self._owner()
        if owner is None:
            return self
        return _WeakHook(copy.deepcopy(owner, memo), self._function)


def weakly_held(hook: Callable) -> Callable:
    """``hook`` as a component should keep it: a bound method through a
    :class:`_WeakHook` on its owner, any other callable as it is."""
    if inspect.ismethod(hook):
        return _WeakHook(hook.__self__, hook.__func__)
    return hook


class MetricsSnapshot:
    """An immutable copy of a registry's state at one instant."""

    def __init__(
        self,
        counters: Dict[MetricKey, Union[int, float]],
        gauges: Dict[MetricKey, float],
        histograms: Dict[MetricKey, HistogramStats],
    ) -> None:
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    # ------------------------------------------------------------- querying

    def counter(self, name: str, **labels: object) -> Union[int, float]:
        return self.counters.get((name, _labelset(labels)), 0)

    def gauge(self, name: str, **labels: object) -> float:
        return self.gauges.get((name, _labelset(labels)), 0.0)

    def total(self, name: str) -> Union[int, float]:
        """Sum of a counter over all its label sets (0 if never touched)."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    # ----------------------------------------------------------------- diff

    def diff(self, older: "MetricsSnapshot") -> "MetricsSnapshot":
        """Activity between ``older`` and this snapshot.

        Counters and histogram count/sum subtract; gauges are levels, not
        flows, so the newer value is kept as-is.  Histogram min/max are not
        invertible and are dropped from a diff.
        """
        counters = {}
        for key, value in self.counters.items():
            delta = value - older.counters.get(key, 0)
            if delta:
                counters[key] = delta
        histograms = {}
        for key, stats in self.histograms.items():
            prior = older.histograms.get(key, HistogramStats())
            if stats.count != prior.count:
                buckets: Tuple[int, ...] = ()
                if stats.bounds:
                    old_counts = prior.bucket_counts or (0,) * len(stats.bounds)
                    if prior.bounds in ((), stats.bounds):
                        buckets = tuple(
                            new - old for new, old in zip(
                                stats.bucket_counts
                                or (0,) * len(stats.bounds),
                                old_counts,
                            )
                        )
                histograms[key] = HistogramStats(
                    count=stats.count - prior.count,
                    total=stats.total - prior.total,
                    bounds=stats.bounds if buckets else (),
                    bucket_counts=buckets,
                )
        return MetricsSnapshot(counters, dict(self.gauges), histograms)

    # ------------------------------------------------------------ rendering

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (sorted rendered keys)."""
        return {
            "counters": {render_key(n, ls): v
                         for (n, ls), v in sorted(self.counters.items())},
            "gauges": {render_key(n, ls): v
                       for (n, ls), v in sorted(self.gauges.items())},
            "histograms": {render_key(n, ls): h.to_dict()
                           for (n, ls), h in sorted(self.histograms.items())},
        }


class MetricsRegistry:
    """Named counters/gauges/histograms plus invariant-audit hooks."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Union[int, float]] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, HistogramStats] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._laws: Dict[str, Conservation] = {}
        self._checks: Dict[str, Callable[[], object]] = {}

    # ------------------------------------------------------------- recording

    def inc(self, name: str, value: Union[int, float] = 1, **labels: object) -> None:
        if value < 0:
            raise ConfigError(f"counter {name!r} cannot decrease (got {value})")
        key = (name, _labelset(labels)) if labels else (name, ())
        self._counters[key] = self._counters.get(key, 0) + value

    # hot-path: vectorized
    def inc_keys(self, increments) -> None:
        """Increments by precomputed key: ``(MetricKey, value)`` pairs,
        added in order, as that many :meth:`inc` calls would add them."""
        counters = self._counters
        for key, value in increments:  # lint: allow-loop (one query's ≈ 20 increments)
            counters[key] = counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[(name, _labelset(labels))] = value

    def declare_buckets(self, name: str, bounds: Sequence[float]) -> None:
        """Declare ``le`` bucket bounds for histogram ``name``.

        Bounds must be strictly increasing and finite (the ``+Inf``
        overflow bucket is implicit).  Only label sets first observed
        *after* the declaration pick the buckets up; re-declaring the same
        bounds is a no-op, re-declaring different bounds raises.
        """
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigError(f"histogram {name!r}: empty bucket bounds")
        for left, right in zip(bounds, bounds[1:]):
            if not left < right:
                raise ConfigError(
                    f"histogram {name!r}: bounds must strictly increase"
                )
        if not math.isfinite(bounds[-1]):
            raise ConfigError(
                f"histogram {name!r}: +Inf bucket is implicit; "
                "declare finite bounds only"
            )
        existing = self._buckets.get(name)
        if existing is not None and existing != bounds:
            raise ConfigError(
                f"histogram {name!r} already declared with different bounds"
            )
        self._buckets[name] = bounds

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _labelset(labels))
        stats = self._histograms.get(key)
        if stats is None:
            stats = HistogramStats(bounds=self._buckets.get(name, ()))
        self._histograms[key] = stats.observe(value)

    def observe_many(self, name: str, values: Sequence[float], **labels: object) -> None:
        """Observe a batch of values — one vectorised histogram update.

        Bit-identical to observing each value in order: bucket indices
        come from ``searchsorted`` with the same ``le`` convention as
        :meth:`HistogramStats.observe`'s ``bisect_left``, and the running
        ``total`` is reproduced with a seeded left-to-right accumulate so
        float summation order matches the sequential path exactly.
        """
        n = len(values)
        if n == 0:
            return
        if n < 16:  # small batches: the plain loop beats array setup
            for value in values:
                self.observe(name, float(value), **labels)
            return
        import numpy as np

        arr = np.asarray(values, dtype=np.float64)
        key = (name, _labelset(labels))
        stats = self._histograms.get(key)
        if stats is None:
            stats = HistogramStats(bounds=self._buckets.get(name, ()))
        buckets = stats.bucket_counts
        if stats.bounds:
            if not buckets:
                buckets = (0,) * len(stats.bounds)
            index = np.searchsorted(
                np.asarray(stats.bounds), arr, side="left"
            )
            fell = np.bincount(
                index[index < len(stats.bounds)],
                minlength=len(stats.bounds),
            )
            buckets = tuple(
                int(have) + int(add) for have, add in zip(buckets, fell)
            )
        running = np.add.accumulate(np.concatenate(([stats.total], arr)))
        self._histograms[key] = HistogramStats(
            count=stats.count + n,
            total=float(running[-1]),
            minimum=min(stats.minimum, float(arr.min())),
            maximum=max(stats.maximum, float(arr.max())),
            bounds=stats.bounds,
            bucket_counts=buckets,
        )

    # ------------------------------------------------------------- querying

    def counter(self, name: str, **labels: object) -> Union[int, float]:
        return self._counters.get((name, _labelset(labels)), 0)

    def gauge(self, name: str, **labels: object) -> float:
        return self._gauges.get((name, _labelset(labels)), 0.0)

    def has_prefix(self, prefix: str) -> bool:
        """Whether any counter or gauge name starts with ``prefix``.

        Lets optional-subsystem consumers (e.g. the windowed collector's
        refresh series) detect activity without creating metric keys —
        reading through :meth:`gauge`/:meth:`total` cannot distinguish
        "absent" from "zero".
        """
        return any(
            n.startswith(prefix) for (n, _) in self._counters
        ) or any(n.startswith(prefix) for (n, _) in self._gauges)

    def histogram(self, name: str, **labels: object) -> HistogramStats:
        return self._histograms.get((name, _labelset(labels)), HistogramStats())

    def total(self, name: str) -> Union[int, float]:
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def counter_state(self) -> Dict[MetricKey, Union[int, float]]:
        """A shallow copy of every counter (no gauges/histograms).

        The windowed collector diffs this per batch; it is deliberately
        cheaper than a full :meth:`snapshot`.
        """
        return dict(self._counters)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            dict(self._counters), dict(self._gauges), dict(self._histograms)
        )

    # ---------------------------------------------------------------- audits

    def add_conservation(
        self,
        name: str,
        lhs: Sequence[str],
        rhs: Sequence[str],
        op: str = "==",
    ) -> None:
        """Declare (or re-declare — registration is idempotent by name) a
        conservation law between summed metric totals."""
        self._laws[name] = _law(name, tuple(lhs), tuple(rhs), op)

    def add_check(self, name: str, hook: Callable[[], object]) -> None:
        """Register an audit hook: a callable returning ``bool`` or
        ``(bool, detail)``.  Hooks run before the conservation laws, so a
        component can refresh its gauges (pool occupancy, breaker-open
        time) inside its hook and have the laws see current levels.

        A bound method is held through a weak reference to its owner (the
        owner holds this registry; see :class:`_WeakHook`); once the owner
        is gone its check passes."""
        self._checks[name] = weakly_held(hook)

    @property
    def laws(self) -> List[Conservation]:
        return [self._laws[name] for name in sorted(self._laws)]

    def audit(self) -> List[str]:
        """Run every hook and law; return the violation descriptions."""
        violations = []
        for name in sorted(self._checks):
            outcome = self._checks[name]()
            detail = ""
            if isinstance(outcome, tuple):
                outcome, detail = outcome
            if not outcome:
                suffix = f": {detail}" if detail else ""
                violations.append(f"check {name!r} failed{suffix}")
        # Aggregate name -> total once (hooks above may have moved
        # gauges), instead of re-scanning every metric per law term: a
        # name with any counter key (even zero-valued) resolves as a
        # counter total, otherwise as a gauge sum.
        totals: Dict[str, float] = {}
        for (n, _), v in self._counters.items():
            totals[n] = totals.get(n, 0) + v
        gauge_totals: Dict[str, float] = {}
        for (n, _), v in self._gauges.items():
            gauge_totals[n] = gauge_totals.get(n, 0.0) + v

        def resolve(name: str) -> float:
            if name in totals:
                return totals[name]
            return gauge_totals.get(name, 0.0)

        for law in self.laws:
            ok, detail = law.holds(resolve)
            if not ok:
                violations.append(f"law {law.name!r} violated: {detail}")
        return violations

    def check(self) -> None:
        """Audit and raise :class:`AuditError` if anything is violated."""
        violations = self.audit()
        if violations:
            raise AuditError("; ".join(violations))


def install_conservation_laws(registry: MetricsRegistry) -> MetricsRegistry:
    """Declare the standard invariant catalogue on ``registry``.

    Laws are phrased so that a metric a particular backend never emits
    resolves to 0 and the law degenerates to a trivially-true statement —
    the same catalogue audits every cache scheme.  Registration is
    idempotent.  See ``docs/observability.md`` for the full catalogue.
    """
    add = registry.add_conservation
    # Cache-level accounting (per-access convention: every raw key in a
    # batch is either a hit or a miss).
    add("cache.lookup-conservation", ["cache.lookups"], ["cache.hits", "cache.misses"])
    add("cache.unique-bounded", ["cache.unique_keys"], ["cache.lookups"], op="<=")
    add("cache.coalesced-bounded", ["cache.coalesced_keys"], ["cache.misses"], op="<=")
    add("cache.unified-bounded", ["cache.unified_hits"], ["cache.misses"], op="<=")
    add("cache.degraded-coalesced-bounded",
        ["cache.coalesced_degraded"], ["cache.coalesced_keys"], op="<=")
    # Per-table accounting (labelled counters recorded at the engine's
    # choke point): every raw key belongs to exactly one table, and the
    # per-table hit/miss split — filled only by schemes that can attribute
    # hits to tables — never exceeds the scheme-level totals.
    add("cache.table-lookup-conservation",
        ["cache.table_lookups"], ["cache.lookups"])
    add("cache.table-hits-bounded",
        ["cache.table_hits"], ["cache.hits"], op="<=")
    add("cache.table-misses-bounded",
        ["cache.table_misses"], ["cache.misses"], op="<=")
    # Fleche miss routing: every deduplicated miss is either the lead of a
    # fetch group or coalesced onto another in-flight batch's fetch.
    add("fleche.miss-routing",
        ["cache.unique_misses"], ["cache.lead_keys", "cache.coalesced_keys"])
    # Coalescer bookkeeping must agree with what the cache scheme counted.
    add("coalescer.conservation", ["coalescer.coalesced"], ["cache.coalesced_keys"])
    add("coalescer.retire-bounded",
        ["coalescer.retired"], ["coalescer.published"], op="<=")
    # Pool occupancy (gauges, refreshed by the FlatCache audit hook).
    add("pool.slot-conservation", ["pool.live", "pool.free"], ["pool.capacity"])
    # Tier accounting: every key reaching the DRAM tier either hits or
    # misses it; degradation/failure never exceeds the traffic that could
    # have caused it.
    add("tier.dram-conservation",
        ["tier.lookup_keys"], ["tier.dram_hits", "tier.dram_misses"])
    add("tier.degraded-bounded", ["tier.degraded_keys"], ["tier.remote_keys"], op="<=")
    add("tier.failure-bounded",
        ["tier.remote_failures"], ["tier.remote_fetches"], op="<=")
    # Fault path.
    add("faults.retry-bounded", ["faults.retries"], ["faults.attempts"], op="<=")
    add("faults.hedge-bounded", ["faults.hedge_wins"], ["faults.hedges_fired"], op="<=")
    # Serving: batching partitions the request stream.
    add("serving.batch-conservation",
        ["serving.requests"], ["serving.batched_requests"])
    add("serving.degraded-bounded",
        ["serving.degraded_requests"], ["serving.requests"], op="<=")
    # Reduction-cache memoisation.
    add("memo.lookup-conservation", ["memo.queries"], ["memo.hits", "memo.misses"])
    # Model refresh.  Apply-split: every key a subscriber applied landed in
    # exactly one UpdateOutcome bucket.  Publish-coalesce: every key the
    # trainer staged was published, squashed by a newer write for the same
    # key, or is still in the staging buffer (a gauge the publisher's audit
    # hook refreshes).  The end-to-end stream law — published = carried +
    # applied + dropped-by-retention + pending — is per-replica state and
    # is audited by the subscriber's ``refresh.stream-conservation`` hook.
    add("refresh.apply-split",
        ["refresh.applied_keys"],
        ["refresh.refreshed_keys", "refresh.invalidated_keys",
         "refresh.skipped_pointer_keys", "refresh.untracked_keys",
         "refresh.duplicate_keys"])
    add("refresh.publish-coalesce",
        ["refresh.staged_keys"],
        ["refresh.published_keys", "refresh.coalesced_writes",
         "refresh.buffered_keys"])
    # Mixed-precision tiering (gauges refreshed by the FlatCache audit
    # hook; all zero — hence trivially true — outside precision runs).
    # Entry-split: every cached entry sits in exactly one precision tier.
    add("precision.entry-split",
        ["precision.entries_fp32", "precision.entries_fp16",
         "precision.entries_int8"],
        ["precision.cached_entries"])
    # Live payload bytes never exceed the pool's structural byte budget.
    add("precision.bytes-bounded",
        ["precision.bytes_fp32", "precision.bytes_fp16",
         "precision.bytes_int8"],
        ["precision.byte_budget"], op="<=")
    # Tier drift: step-weighted promotions/demotions balance against the
    # net born-vs-current drift of live and retired entries.
    add("precision.tier-drift",
        ["precision.promotions", "precision.drift_dn_live",
         "precision.drift_dn_retired"],
        ["precision.demotions", "precision.drift_up_live",
         "precision.drift_up_retired"])
    install_reqtrace_laws(registry)
    return registry


def install_reqtrace_laws(registry: MetricsRegistry) -> MetricsRegistry:
    """Request-tracing invariants (trivially true when tracing is off).

    Shared between the engine catalogue above and the cluster router's
    own registry — the router samples at merge time, so its ``reqtrace.*``
    counters live cluster-side, not on any one replica.
    """
    add = registry.add_conservation
    # Sampling partitions the request stream: every traced request is
    # either materialized (by exactly one of head/tail/forced) or dropped.
    add("reqtrace.sample-split",
        ["reqtrace.sampled", "reqtrace.dropped"], ["reqtrace.requests"])
    add("reqtrace.sample-kinds",
        ["reqtrace.sampled_head", "reqtrace.sampled_tail",
         "reqtrace.sampled_forced"],
        ["reqtrace.sampled"])
    # Tail capture retains 100% of SLA violators (the acceptance bar for
    # root-cause coverage); eligible == retained whenever it is enabled.
    add("reqtrace.tail-retention",
        ["reqtrace.tail_retained"], ["reqtrace.tail_eligible"])
    # Every materialized trace's exclusive segments summed back to its
    # end-to-end latency (within float tolerance) at decompose time.
    add("reqtrace.segment-conservation",
        ["reqtrace.conservation_ok"], ["reqtrace.conservation_checked"])
    return registry


class Observable:
    """Mixin giving a component a lazily-created private registry that can
    be rebound to a shared one.

    Components call ``self.obs.inc(...)`` unconditionally; until
    :meth:`bind_observability` is called the increments land in a private
    registry (cheap, unaudited), afterwards in the shared one.  Subclasses
    override :meth:`_register_observability` to install audit hooks and to
    forward the binding to children.
    """

    _obs: Optional[MetricsRegistry] = None

    @property
    def obs(self) -> MetricsRegistry:
        if self._obs is None:
            self._obs = MetricsRegistry()
        return self._obs

    def bind_observability(self, registry: MetricsRegistry) -> None:
        self._obs = registry
        self._register_observability(registry)

    def _register_observability(self, registry: MetricsRegistry) -> None:
        """Subclass hook: install audit checks, bind children."""
