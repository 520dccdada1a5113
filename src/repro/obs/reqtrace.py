"""Per-request distributed tracing with bounded-overhead sampling.

The serving loop already computes every instant a trace needs — batch
dispatch, per-stage stalls and executor elapsed deltas, batch finish —
so tracing records them instead of re-deriving them: a
:class:`RequestTracer` attached to a server collects **one record per
batch** (O(1) per stage per batch, never per-request work in the hot
loop), and only *materializes* per-request traces for the sampled set
at finalize time.  Sampling is deterministic and two-sided:

* **head sampling** — ``request_id % head_interval == 0`` keeps an
  unbiased deterministic slice of all traffic;
* **tail capture** — every request whose end-to-end latency exceeds
  the SLA budget is always retained (so 100% of SLA violators carry a
  root-cause tag), and the cluster router additionally force-retains
  every hedged, failed-over, breaker-rejected, and shed request.

A materialized :class:`RequestTrace` carries the
:class:`TraceContext` (request id, dispatch copy, replica
incarnation) and the exclusive segment decomposition from
:mod:`~repro.obs.critical_path`.

Nothing here runs when no tracer is attached: the serving loop guards
every call site on ``reqtracer is not None``, and all ``reqtrace.*``
counters are incremented only inside :func:`sample_traces` —
a run without tracing is byte-identical to one built before this
module existed (zero ``reqtrace.*`` metrics, identical goldens).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Tuple,
)

import numpy as np

from ..errors import ConfigError
from .critical_path import CONSERVATION_TOL, classify, conserves, decompose

__all__ = [
    "BatchTraceRecord",
    "RequestTrace",
    "RequestTracer",
    "TraceConfig",
    "TraceContext",
]


#: Tail capture: every SLA violator is retained regardless of head
#: sampling.
CAPTURE_TAIL = True


@dataclass(frozen=True)
class TraceConfig:
    """Sampling contract of one tracer.

    ``head_interval`` — keep every request whose id is a multiple of
    this (0 disables head sampling).  ``sla_budget`` — latencies above
    it count as SLA violations, and every violator is retained
    (:data:`CAPTURE_TAIL`).
    """

    head_interval: int = 64
    sla_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.head_interval < 0:
            raise ConfigError("head_interval must be >= 0 (0 disables)")
        if self.sla_budget is not None and self.sla_budget <= 0:
            raise ConfigError("sla_budget must be positive when set")


@dataclass(frozen=True)
class TraceContext:
    """Identity of one dispatch copy of one request."""

    request_id: int
    dispatch: str = "primary"
    replica: Optional[int] = None
    incarnation: int = 0


class BatchTraceRecord:
    """One batch's trip through the serving loop (the O(1) hot-loop unit).

    The serving loop owns exactly one live record per in-flight batch
    and calls :meth:`dispatched` / :meth:`stage` with values it already
    computed; the engine stamps coalescing attribution via
    :meth:`note_query` when the batch's query result returns.  All
    instants are on the serving replica's own clock.
    """

    __slots__ = (
        "index", "lo", "hi", "formed_at", "dispatch_at", "stages",
        "finish", "coalesced_keys", "coalesce_sources",
    )

    def __init__(self, index: int, lo: int, hi: int, formed_at: float):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.formed_at = formed_at
        self.dispatch_at = formed_at
        #: ``(stage name, inter-stage wait, exec seconds)`` per stage.
        self.stages: List[Tuple[str, float, float]] = []
        self.finish = formed_at
        self.coalesced_keys = 0
        self.coalesce_sources: Dict[int, int] = {}

    def dispatched(self, at: float) -> None:
        self.dispatch_at = at

    def stage(self, name: str, wait: float, exec_s: float) -> None:
        self.stages.append((name, wait, exec_s))

    def note_query(self, query) -> None:
        """Stamp the batch's coalesced-miss join (engine calls this)."""
        self.coalesced_keys = int(query.coalesced_keys)
        if query.coalesce_sources:
            self.coalesce_sources = dict(query.coalesce_sources)


@dataclass
class RequestTrace:
    """One sampled request, materialized from its batch record.

    ``queue`` / ``stages`` are replica-clock
    durations; ``scale`` is the replica slowdown factor the router
    applied to the whole replica-side latency, and ``route_wait`` /
    ``route_cause`` the unscaled router hop (arrival -> winning
    dispatch).  ``segments`` is the exclusive decomposition
    (:func:`~repro.obs.critical_path.decompose`) and ``rootcause`` the
    dominant-segment tag for SLA violators.
    """

    context: TraceContext
    arrival: float
    latency: float
    batch_index: int
    queue: float = 0.0
    stages: Tuple[Tuple[str, float, float], ...] = ()
    coalesced_keys: int = 0
    coalesce_sources: Dict[int, int] = field(default_factory=dict)
    scale: float = 1.0
    route_wait: float = 0.0
    route_cause: Optional[str] = None
    sampled_by: str = "head"
    segments: Dict[str, float] = field(default_factory=dict)
    rootcause: Optional[str] = None
    conserved: bool = True

    @property
    def request_id(self) -> int:
        return self.context.request_id

    @property
    def shed(self) -> bool:
        return self.context.dispatch == "shed"

    @property
    def finish(self) -> float:
        return self.arrival + self.latency

    def to_dict(self) -> dict:
        ctx = self.context
        return {
            "request_id": int(ctx.request_id),
            "dispatch": ctx.dispatch,
            "replica": ctx.replica,
            "incarnation": int(ctx.incarnation),
            "batch": int(self.batch_index),
            "arrival": float(self.arrival),
            "latency": (
                float(self.latency) if np.isfinite(self.latency) else None
            ),
            "queue": float(self.queue),
            "stages": [
                [name, float(wait), float(exec_s)]
                for name, wait, exec_s in self.stages
            ],
            "coalesced_keys": int(self.coalesced_keys),
            "coalesce_sources": {
                str(owner): int(count)
                for owner, count in sorted(self.coalesce_sources.items())
            },
            "scale": float(self.scale),
            "route_wait": float(self.route_wait),
            "route_cause": self.route_cause,
            "sampled_by": self.sampled_by,
            "segments": {
                name: float(value)
                for name, value in sorted(self.segments.items())
            },
            "rootcause": self.rootcause,
            "conserved": bool(self.conserved),
        }


def _finish_trace(trace: RequestTrace, registry=None) -> None:
    """Decompose, conservation-check, and (if violating) classify."""
    if trace.shed:
        trace.segments = {"shed": 0.0}
        trace.rootcause = "shed"
        return
    trace.segments = decompose(trace)
    trace.conserved = conserves(
        trace.segments, trace.latency, CONSERVATION_TOL
    )
    if registry is not None:
        registry.inc("reqtrace.conservation_checked")
        if trace.conserved:
            registry.inc("reqtrace.conservation_ok")


# hot-path: vectorized
def sample_masks(config: TraceConfig, ids: np.ndarray, latencies: np.ndarray):
    """Head / tail / violation masks over one run.

    All three are array-wide numpy ops; the per-request Python work
    downstream is bounded by how many requests they select.
    """
    n = len(latencies)
    if config.head_interval:
        head = (ids % config.head_interval) == 0
    else:
        head = np.zeros(n, dtype=bool)
    if config.sla_budget is not None:
        violating = latencies > config.sla_budget
    else:
        violating = np.zeros(n, dtype=bool)
    return head, violating & CAPTURE_TAIL, violating


def sample_traces(
    config: TraceConfig,
    registry,
    ids: np.ndarray,
    latencies: np.ndarray,
    forced: np.ndarray,
    materialise: Callable[[int], RequestTrace],
) -> List[RequestTrace]:
    """Sample one run, materialize the sampled set, count, classify.

    The one place sampling decisions and ``reqtrace.*`` increments
    happen, for a standalone server (:meth:`RequestTracer.finalize`)
    and for the cluster router alike: ``forced`` is the caller's
    always-retain mask and ``materialise`` maps a sampled position to
    its :class:`RequestTrace` (latency and routing hop already filled
    in); this stamps ``sampled_by``, decomposes, conservation-checks
    and root-causes every violator.
    """
    head, tail, violating = sample_masks(config, ids, latencies)
    sampled = head | tail | forced
    n = len(latencies)
    n_sampled = int(sampled.sum())
    n_viol = int(violating.sum())
    registry.inc("reqtrace.requests", n)
    registry.inc("reqtrace.sampled", n_sampled)
    registry.inc("reqtrace.dropped", n - n_sampled)
    registry.inc("reqtrace.sampled_forced", int(forced.sum()))
    registry.inc("reqtrace.sampled_tail", int((tail & ~forced).sum()))
    registry.inc(
        "reqtrace.sampled_head", int((head & ~tail & ~forced).sum())
    )
    registry.inc("reqtrace.sla_violations", n_viol)
    if CAPTURE_TAIL:
        registry.inc("reqtrace.tail_eligible", n_viol)
        registry.inc(
            "reqtrace.tail_retained", int((violating & sampled).sum())
        )
    traces: List[RequestTrace] = []
    for pos in np.flatnonzero(sampled).tolist():  # lint: allow-loop (per sampled request, bounded by the sampling config)
        trace = materialise(pos)
        trace.sampled_by = (
            "forced" if forced[pos] else "tail" if tail[pos] else "head"
        )
        _finish_trace(trace, registry)
        if violating[pos]:
            trace.rootcause = classify(trace.segments)
            registry.inc("reqtrace.rootcause", cause=trace.rootcause)
        traces.append(trace)
    return traces


def cause_counts(traces: Iterable[RequestTrace]) -> Dict[str, int]:
    """Traces per root-cause tag, in sorted key order (untagged skipped)."""
    counts = Counter(t.rootcause for t in traces if t.rootcause)
    return {cause: counts[cause] for cause in sorted(counts)}


class RequestTracer:
    """Per-run request tracer: batch records in, sampled traces out.

    One tracer serves one run.  Standalone servers own the whole
    lifecycle (``finalize_on_serve=True``): the serving loop calls
    :meth:`finalize` before its report snapshot, which samples,
    materializes, classifies, and increments the ``reqtrace.*``
    counters on the server's registry.  The cluster router instead
    attaches one tracer per ``(replica, incarnation)`` stream with
    ``finalize_on_serve=False`` — streams only *record* — and hands
    :func:`sample_traces` a materialiser that wraps :meth:`trace_for`,
    so sampling decisions (and counters) happen once, at router level,
    where the end-to-end latency is known.
    """

    def __init__(
        self,
        config: Optional[TraceConfig] = None,
        finalize_on_serve: bool = True,
    ):
        self.config = config or TraceConfig()
        self.finalize_on_serve = finalize_on_serve
        self.batches: List[BatchTraceRecord] = []
        self.traces: List[RequestTrace] = []
        self._ids: Optional[np.ndarray] = None
        self._arrivals: Optional[np.ndarray] = None
        self._batch_of: Optional[np.ndarray] = None

    # ------------------------------------------------------- recording

    def begin_run(
        self, request_ids: np.ndarray, arrivals: np.ndarray
    ) -> None:
        """Reset and bind the run's request identity/arrival arrays."""
        self.batches = []
        self.traces = []
        self._ids = np.asarray(request_ids, dtype=np.int64)
        self._arrivals = np.asarray(arrivals, dtype=np.float64)
        self._batch_of = None

    def begin_batch(
        self, index: int, lo: int, hi: int, formed_at: float
    ) -> BatchTraceRecord:
        record = BatchTraceRecord(index, lo, hi, formed_at)
        self.batches.append(record)
        return record

    def finish_batch(
        self, record: BatchTraceRecord, finish: float
    ) -> None:
        record.finish = finish

    # ---------------------------------------------------- finalization

    def latencies(self) -> np.ndarray:
        """Per-request latencies replayed from the batch records.

        ``finish - arrival`` per batch slice — the same float op, on
        the same operands, as the serving loop's own bookkeeping.
        """
        if self._arrivals is None:
            raise ConfigError("begin_run was never called on this tracer")
        out = np.zeros(len(self._arrivals), dtype=np.float64)
        for record in self.batches:  # lint: allow-loop (per batch)
            out[record.lo:record.hi] = (
                record.finish - self._arrivals[record.lo:record.hi]
            )
        return out

    def _record_for(self, position: int) -> BatchTraceRecord:
        if self._batch_of is None:
            batch_of = np.zeros(len(self._arrivals), dtype=np.intp)
            for k, record in enumerate(self.batches):  # lint: allow-loop (per batch)
                batch_of[record.lo:record.hi] = k
            self._batch_of = batch_of
        return self.batches[int(self._batch_of[position])]

    def trace_for(self, position: int) -> RequestTrace:
        """Materialize one request by stream position (no counters).

        Replica-clock view: ``arrival`` is the stream arrival (the
        dispatch instant for re-dispatched copies) and ``latency`` the
        replica-side latency; the router rewrites both when it wraps
        the trace with its routing hop and slowdown scale.
        """
        record = self._record_for(position)
        arrival = float(self._arrivals[position])
        return RequestTrace(
            context=TraceContext(request_id=int(self._ids[position])),
            arrival=arrival,
            latency=record.finish - arrival,
            batch_index=record.index,
            queue=record.dispatch_at - arrival,
            stages=tuple(record.stages),
            coalesced_keys=record.coalesced_keys,
            coalesce_sources=dict(record.coalesce_sources),
        )

    def finalize(self, registry) -> List[RequestTrace]:
        """Sample, materialize, classify; fold counters into ``registry``.

        Called once per standalone run, after the last batch finishes
        and before the report's exit snapshot, so the ``reqtrace.*``
        delta lands inside the report and the conservation laws audit
        it at the exit barrier.
        """
        self.traces = sample_traces(
            self.config, registry, self._ids, self.latencies(),
            np.zeros(len(self._ids), dtype=bool), self.trace_for,
        )
        return self.traces

    # -------------------------------------------------------- exports

    def to_payload(self) -> dict:
        """Deterministic JSON artifact (``kind: reqtrace``)."""
        cfg = self.config
        return {
            "kind": "reqtrace",
            "head_interval": cfg.head_interval,
            "sla_budget_s": cfg.sla_budget,
            "capture_tail": CAPTURE_TAIL,
            "requests": (
                0 if self._arrivals is None else int(len(self._arrivals))
            ),
            "sampled": len(self.traces),
            "rootcause": {"causes": cause_counts(self.traces)},
            "traces": [trace.to_dict() for trace in self.traces],
        }
