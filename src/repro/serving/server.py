"""The serving queueing simulation.

Couples an arrival stream, a batching policy, a cache scheme, and the
simulated platform into one run: batches dispatch in order on the engine
(a single serving executor — one GPU), and each request's latency is

    queueing (until its batch seals)
  + head-of-line wait (until the engine is free)
  + batch service time (simulated embedding + dense compute).

The report carries the latency distribution and SLA attainment, making
"how much more traffic fits under the same SLA with Fleche?" — the
paper's framing of why embedding speed matters — directly answerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cache_base import EmbeddingCacheScheme
from ..core.engine import InferenceEngine
from ..errors import ConfigError, WorkloadError
from ..hardware import HardwareSpec
from ..model.dcn import DeepCrossNetwork
from ..obs.registry import MetricsRegistry, MetricsSnapshot
from ..obs.timeseries import DEFAULT_LATENCY_BUCKETS
from ..workloads.spec import DatasetSpec
from ..workloads.trace import TraceBatch
from .arrivals import Request, RequestColumns
from .batcher import BatchingPolicy


@dataclass
class ServingReport:
    """Outcome of one serving run.

    Every counter-valued field is derived from the engine's metrics
    registry: the serving loop snapshots the registry at run entry and
    diffs at run exit, so the report, the benchmarks and the tests all
    read the same audited numbers (the raw delta is kept in ``metrics``).
    The resilience fields stay zero / empty on fault-free runs; they are
    populated when the scheme's backing store is fault-aware (a
    :class:`~repro.multitier.hierarchy.TieredParameterStore` with a
    fault injector installed).
    """

    latencies: np.ndarray
    batch_sizes: List[int] = field(default_factory=list)
    served: int = 0
    #: Makespan of the run: first request arrival -> last batch finish
    #: (so throughput accounts for the tail batches draining).
    span: float = 0.0
    #: Cache hits / misses / unified-index hits over deduplicated keys,
    #: summed across all served batches.
    hits: int = 0
    misses: int = 0
    unified_hits: int = 0
    #: Missed keys served from another in-flight batch's pending fetch
    #: (always 0 at depth 1, where no two batches are in flight together).
    coalesced_keys: int = 0
    #: Click probabilities concatenated in request order (dense runs only).
    probabilities: Optional[np.ndarray] = None
    #: Requests whose batch served at least one degraded (stale/default)
    #: embedding because the remote tier missed its retry budget.
    degraded_requests: int = 0
    #: Remote-fetch retries beyond each first attempt.
    retries: int = 0
    #: Hedged second requests fired after the hedge delay.
    hedges_fired: int = 0
    #: Total simulated time per-shard circuit breakers spent open.
    breaker_open_time: float = 0.0
    #: Merged ``(start, end)`` fault windows of the installed schedule.
    fault_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Per-request arrival times, aligned with ``latencies``.
    arrival_times: Optional[np.ndarray] = None
    #: Request-tracing summary (zero / empty unless a
    #: :class:`~repro.obs.reqtrace.RequestTracer` observes the run): requests
    #: covered by trace recording, traces actually materialized under the
    #: sampling policy, and the SLA-miss root-cause breakdown
    #: (``cause -> violating request count``).
    traced_requests: int = 0
    sampled_traces: int = 0
    rootcause: Dict[str, int] = field(default_factory=dict)
    #: Registry delta covering exactly this run (counters, gauges,
    #: histograms) — the source the scalar fields above are read from.
    metrics: Optional[MetricsSnapshot] = None

    @property
    def throughput(self) -> float:
        return self.served / self.span if self.span > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile; ``nan`` on an empty (zero-request) window."""
        if len(self.latencies) == 0:
            return float("nan")
        return float(np.percentile(self.latencies, q))

    @property
    def median_latency(self) -> float:
        return self.percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.percentile(99.0)

    def sla_attainment(self, budget: float, window: str = "all") -> float:
        """Fraction of requests served within the latency ``budget``.

        ``window`` restricts the population: ``"all"`` (default),
        ``"healthy"`` — requests arriving outside every fault window —
        or ``"faulty"`` — requests arriving inside one.  An empty
        population yields ``nan``.
        """
        if budget <= 0:
            raise WorkloadError("SLA budget must be positive")
        ok = self.latencies <= budget
        if window == "all":
            return float(ok.mean())
        if window not in ("healthy", "faulty"):
            raise WorkloadError(
                "window must be 'all', 'healthy', or 'faulty'"
            )
        if self.arrival_times is None:
            raise WorkloadError(
                "windowed SLA needs per-request arrival times"
            )
        in_fault = np.zeros(len(self.latencies), dtype=bool)
        for start, end in self.fault_windows:
            in_fault |= (self.arrival_times >= start) & (
                self.arrival_times < end
            )
        mask = in_fault if window == "faulty" else ~in_fault
        return float(ok[mask].mean()) if mask.any() else float("nan")


class InferenceServer:
    """Single-GPU serving over a cache scheme.

    The staged loop keeps ``depth`` batches in flight (1, the default: one
    at a time); ``coalesce`` shares in-flight miss fetches between
    overlapping batches (none at depth 1, so no table is built).  A model
    refresher joins the loop by assigning :attr:`refresher`.  Observers —
    a :class:`~repro.obs.spans.SpanTracer`, a
    :class:`~repro.obs.timeseries.WindowedCollector`, a
    :class:`~repro.obs.reqtrace.RequestTracer` — attach one way, by
    appending to :attr:`observers`: each reads the run's
    :class:`~repro.obs.record.ServingRecord` when the run ends.
    """

    def __init__(
        self,
        dataset: DatasetSpec,
        scheme: EmbeddingCacheScheme,
        hw: HardwareSpec,
        policy: Optional[BatchingPolicy] = None,
        model: Optional[DeepCrossNetwork] = None,
        include_dense: bool = False,
        depth: int = 1,
        coalesce: bool = True,
    ):
        if depth < 1:
            raise ConfigError("pipeline depth must be >= 1")
        self.depth = depth
        self.coalesce = coalesce
        #: :class:`~repro.serving.pipeline.PipelineRunInfo` of the last run.
        self.last_run = None
        self.dataset = dataset
        self.scheme = scheme
        self.hw = hw
        self.policy = policy or BatchingPolicy()
        #: optional :class:`~repro.refresh.scheduler.RefreshScheduler`;
        #: when set, model-update quanta run in the provably idle slots
        #: between stages, never past the next dispatch instant.
        self.refresher = None
        #: Objects with an ``observe(record)`` method, shown each run's
        #: :class:`~repro.obs.record.ServingRecord` after its last batch
        #: (and before the report's exit snapshot), in list order.  Empty,
        #: a run builds no record.
        self.observers: list = []
        self.engine = InferenceEngine(
            scheme,
            hw,
            model=model,
            ids_per_field=dataset.ids_per_field,
            include_dense=include_dense and model is not None,
        )
        self.engine.obs.declare_buckets(
            "serving.latency", DEFAULT_LATENCY_BUCKETS
        )

    @property
    def obs(self) -> MetricsRegistry:
        """The engine's metrics registry (single source of truth)."""
        return self.engine.obs

    # hot-path: vectorized
    def _to_trace_batch(
        self, columns: RequestColumns, start: int, stop: int,
    ) -> TraceBatch:
        """Requests ``start:stop`` of a served list (read as ``columns``)
        as one trace batch: one gather from the list's id cube, laid out
        table-major in one copy."""
        stacked = columns.cube[columns.rows[start:stop]]
        count, num_tables, ids_per_field = stacked.shape
        features = stacked.transpose(1, 0, 2).astype(
            np.uint64, order="C"
        ).reshape(-1)
        return TraceBatch.from_columns(
            features, [count * ids_per_field] * num_tables, count,
        )

    def _begin_run(self, requests: Sequence[Request]) -> MetricsSnapshot:
        """Audit barrier at run entry; returns the pre-run snapshot.

        The audit runs every registered hook (refreshing occupancy and
        breaker gauges) and every conservation law, so a report is only
        ever diffed between two verified registry states.
        """
        obs = self.obs
        obs.check()
        before = obs.snapshot()
        obs.inc("serving.requests", len(requests))
        return before

    # hot-path: vectorized
    def _finalize_report(
        self,
        latencies: Sequence[float],
        arrivals: np.ndarray,
        sizes: List[int],
        last_finish: float,
        before: MetricsSnapshot,
    ) -> ServingReport:
        """Assemble the run's report.

        Every counter-valued field is read from the registry delta across
        the run — there is no independently-maintained accounting left in
        the serving layer.
        """
        obs = self.obs
        obs.observe_many("serving.latency", latencies)
        obs.check()
        delta = obs.snapshot().diff(before)
        span = last_finish - float(arrivals.min())
        report = ServingReport(
            latencies=np.asarray(latencies),
            batch_sizes=sizes,
            served=int(delta.total("serving.requests")),
            span=max(span, 1e-12),
            arrival_times=np.asarray(arrivals),
            hits=int(delta.total("cache.hits")),
            misses=int(delta.total("cache.misses")),
            unified_hits=int(delta.total("cache.unified_hits")),
            coalesced_keys=int(delta.total("cache.coalesced_keys")),
            degraded_requests=int(delta.total("serving.degraded_requests")),
            retries=int(delta.total("faults.retries")),
            hedges_fired=int(delta.total("faults.hedges_fired")),
            breaker_open_time=float(delta.total("faults.breaker_open_time")),
            traced_requests=int(delta.total("reqtrace.requests")),
            sampled_traces=int(delta.total("reqtrace.sampled")),
            metrics=delta,
        )
        for (name, labels), value in delta.counters.items():  # lint: allow-loop (per counter key)
            if name == "reqtrace.rootcause" and value:
                report.rootcause[dict(labels).get("cause", "")] = int(value)
        report.fault_windows = self.scheme.store.fault_windows()
        return report

    def serve(self, requests: Sequence[Request]) -> ServingReport:
        """Run the whole request stream; returns the latency report."""
        # Imported late: ``pipeline`` subclasses this class.
        from .pipeline import serve_staged
        return serve_staged(self, requests)
