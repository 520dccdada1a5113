"""Per-request distributed tracing with bounded-overhead sampling.

Request traces are a function of the run's
:class:`~repro.obs.record.ServingRecord`: the serving loop records each
batch's dispatch, per-stage waits and executor time and finish once,
and a :class:`RequestTracer` observing the server *materializes*
per-request traces for the sampled set when the run ends
(:func:`request_trace`).  Sampling is deterministic and two-sided:

* **head sampling** — ``request_id % head_interval == 0`` keeps an
  unbiased deterministic slice of all traffic;
* **tail capture** — every request whose end-to-end latency exceeds
  the SLA budget is always retained (so 100% of SLA violators carry a
  root-cause tag), and the cluster router additionally force-retains
  every hedged, failed-over, breaker-rejected, and shed request.

A materialized :class:`RequestTrace` carries the
:class:`TraceContext` (request id, dispatch copy, replica
incarnation) and the exclusive segment decomposition from
:mod:`~repro.obs.critical_path`.  All ``reqtrace.*`` counters are
incremented inside :func:`sample_traces`, so a run without tracing has
none of them.
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


# hot-path: vectorized
def request_trace(record, position: int) -> RequestTrace:
    """Materialize request ``position`` of a run from its record (no
    counters).

    Replica-clock view: ``arrival`` is the stream arrival (the dispatch
    instant for re-dispatched copies) and ``latency`` the replica-side
    latency; the router rewrites both when it wraps the trace with its
    routing hop and slowdown scale.
    """
    row = record.row_of(position)
    arrival = float(record.arrivals[position])
    stages = []
    elapsed_before = 0.0
    for _, stage, _, wait, elapsed, _ in record.stages[row]:  # lint: allow-loop (per stage)
        stages.append((stage, wait, elapsed - elapsed_before))
        elapsed_before = elapsed
    return RequestTrace(
        context=TraceContext(request_id=int(record.request_ids[position])),
        arrival=arrival,
        latency=record.finish[row] - arrival,
        batch_index=record.batch[row],
        queue=record.dispatch[row] - arrival,
        stages=tuple(stages),
        coalesced_keys=record.coalesced_keys[row],
        coalesce_sources=dict(record.coalesce_sources[row]),
    )


class RequestTracer:
    """Samples each observed run: head slice plus every SLA violator.

    :meth:`observe` runs when the run ends, before the report's exit
    snapshot, so the ``reqtrace.*`` delta lands inside the report and
    the conservation laws audit it at the exit barrier.  The cluster
    router samples at its own level instead (where the end-to-end
    latency is known), from the records its replicas kept.
    """

    def __init__(self, config: Optional[TraceConfig] = None):
        self.config = config or TraceConfig()
        self.record = None
        self.traces: List[RequestTrace] = []

    def observe(self, record) -> None:
        """Sample, materialize and classify one run; count on its
        registry."""
        self.record = record
        ids = np.asarray(record.request_ids, dtype=np.int64)
        self.traces = sample_traces(
            self.config, record.registry, ids, record.latencies(),
            np.zeros(len(ids), dtype=bool),
            lambda position: request_trace(record, position),
        )

    def to_payload(self) -> dict:
        """Deterministic JSON artifact (``kind: reqtrace``)."""
        cfg = self.config
        return {
            "kind": "reqtrace",
            "head_interval": cfg.head_interval,
            "sla_budget_s": cfg.sla_budget,
            "capture_tail": CAPTURE_TAIL,
            "requests": (
                0 if self.record is None else len(self.record.arrivals)
            ),
            "sampled": len(self.traces),
            "rootcause": {"causes": cause_counts(self.traces)},
            "traces": [trace.to_dict() for trace in self.traces],
        }
