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
from ..errors import WorkloadError
from ..gpusim.executor import Executor
from ..hardware import HardwareSpec
from ..model.dcn import DeepCrossNetwork
from ..obs.registry import MetricsRegistry, MetricsSnapshot
from ..obs.spans import SpanTracer
from ..obs.timeseries import DEFAULT_LATENCY_BUCKETS, WindowedCollector
from ..workloads.spec import DatasetSpec
from ..workloads.trace import TraceBatch
from .arrivals import Request
from .batcher import BatchingPolicy, FormedBatch, form_batches


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
    #: (pipelined serving only; 0 on the sequential path).
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
    #: :class:`~repro.obs.reqtrace.RequestTracer` is attached): requests
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
    """Single-GPU serving loop over a cache scheme."""

    def __init__(
        self,
        dataset: DatasetSpec,
        scheme: EmbeddingCacheScheme,
        hw: HardwareSpec,
        policy: Optional[BatchingPolicy] = None,
        model: Optional[DeepCrossNetwork] = None,
        include_dense: bool = False,
        tracer: Optional[SpanTracer] = None,
        collector: Optional[WindowedCollector] = None,
        refresher=None,
        reqtracer=None,
        autotuner=None,
    ):
        self.dataset = dataset
        self.scheme = scheme
        self.hw = hw
        self.policy = policy or BatchingPolicy()
        #: optional :class:`~repro.refresh.scheduler.RefreshScheduler`;
        #: when set, model-update quanta run in the gaps between batches
        #: (idle-bounded unless the scheduler is aggressive, in which
        #: case an overrunning quantum delays the next batch — the
        #: sequential loop makes that SLA cost measurable).
        self.refresher = refresher
        #: optional serving-level span tracer (one span per batch stage on
        #: the absolute simulated clock; exports Chrome trace JSON).
        self.tracer = tracer
        #: optional :class:`~repro.obs.reqtrace.RequestTracer` — per-request
        #: distributed tracing with bounded-overhead sampling.  ``None``
        #: (the default) leaves every serving code path byte-identical to
        #: an untraced run: no ``reqtrace.*`` counter is ever incremented.
        self.reqtracer = reqtracer
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
        #: optional windowed time-series collector, fed at each batch's
        #: completion instant on the simulated clock by both serving loops.
        self.collector = collector
        if collector is not None:
            collector.bind(self.engine.obs)
        #: optional :class:`~repro.autotune.AdaptiveController` — the
        #: closed-loop retuner, fed after every batch completion.  ``None``
        #: (or a disabled controller) leaves every serving code path
        #: byte-identical to an untuned run: no cache knob is touched and
        #: no ``autotune.*`` metric is ever created.
        self.autotuner = autotuner
        if autotuner is not None:
            autotuner.attach(self)

    @property
    def obs(self) -> MetricsRegistry:
        """The engine's metrics registry (single source of truth)."""
        return self.engine.obs

    def _to_trace_batch(self, batch: FormedBatch) -> TraceBatch:
        # Hot path: when every table draws the same number of ids per
        # request (the common workload shape), one C-level stack builds a
        # (requests, tables, ids) cube and each table's id column is a
        # single reshape — no per-request concatenate loop.
        requests = batch.requests
        # Fastest path: every request carries a (cube, row) source handle
        # into one shared id cube — the whole batch is a single gather.
        src = getattr(requests[0], "source", None)
        if src is not None:
            cube = src[0]
            rows = np.empty(len(requests), dtype=np.intp)
            for i, r in enumerate(requests):
                s = r.source
                if s is None or s[0] is not cube:
                    rows = None
                    break
                rows[i] = s[1]
            if rows is not None and cube.ndim == 3:
                stacked = cube[rows]
                ids_per_table = [
                    stacked[:, table, :].reshape(-1)
                    for table in range(self.dataset.num_tables)
                ]
                return TraceBatch(ids_per_table=ids_per_table,
                                  batch_size=len(requests))
        try:
            stacked = np.asarray(
                [r.feature_ids for r in requests], dtype=np.uint64
            )
        except ValueError:
            stacked = None
        if stacked is not None and stacked.ndim == 3:
            ids_per_table = [
                stacked[:, table, :].reshape(-1)
                for table in range(self.dataset.num_tables)
            ]
        else:  # ragged per-table id counts: exact per-table fallback
            ids_per_table = [
                np.concatenate(
                    [r.feature_ids[table] for r in requests]
                ).astype(np.uint64)
                for table in range(self.dataset.num_tables)
            ]
        return TraceBatch(ids_per_table=ids_per_table,
                          batch_size=len(requests))

    @property
    def _fault_store(self):
        """The scheme's backing store when it is fault-aware, else None."""
        store = getattr(self.scheme, "store", None)
        if store is not None and hasattr(store, "fault_stats"):
            return store
        return None

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

    def _finalize_report(
        self,
        requests: Sequence[Request],
        latencies: Sequence[float],
        arrivals: Sequence[float],
        sizes: List[int],
        last_finish: float,
        before: MetricsSnapshot,
    ) -> ServingReport:
        """Assemble the report shared by the sequential and pipelined loops.

        Every counter-valued field is read from the registry delta across
        the run — there is no independently-maintained accounting left in
        the serving layer.
        """
        obs = self.obs
        obs.observe_many("serving.latency", latencies)
        obs.check()
        delta = obs.snapshot().diff(before)
        span = last_finish - min(r.arrival_time for r in requests)
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
        for (name, labels), value in delta.counters.items():
            if name == "reqtrace.rootcause" and value:
                report.rootcause[dict(labels).get("cause", "")] = int(value)
        store = self._fault_store
        if store is not None:
            report.fault_windows = store.fault_windows()
        return report

    def _trace_span(
        self, track: str, batch_index: int, stage: str, t0: float, t1: float
    ) -> None:
        if self.tracer is not None:
            self.tracer.record(track, f"b{batch_index}:{stage}", t0, t1, stage)

    def _run_traced_batch(
        self,
        batch_index: int,
        trace_batch: TraceBatch,
        executor: Executor,
        start: float,
        track: str = "serving",
        trace=None,
    ):
        """Run one batch stage-by-stage, recording one span per stage.

        Timing-identical to :meth:`InferenceEngine.run_batch` — the stages
        are driven back-to-back with no scheduling in between; the tracer
        only observes executor clock values at the stage boundaries.
        ``trace`` (a :class:`~repro.obs.reqtrace.BatchTraceRecord`) gets
        the same stage boundaries as zero-wait stage entries — on the
        sequential loop every stage starts the instant its predecessor
        ends.  Returns ``(query, probabilities, service_time)``.
        """
        stages = self.engine.run_batch_stages(
            trace_batch, executor, now=start, trace=trace
        )
        stage = next(stages)
        prev = executor.elapsed()
        while True:
            try:
                next_stage = stages.send(None)
            except StopIteration as stop:
                end = executor.elapsed()
                self._trace_span(track, batch_index, stage, start + prev,
                                 start + end)
                if trace is not None:
                    trace.stage(stage, 0.0, end - prev)
                query, probabilities = stop.value
                return query, probabilities, end
            end = executor.elapsed()
            self._trace_span(track, batch_index, stage, start + prev,
                             start + end)
            if trace is not None:
                trace.stage(stage, 0.0, end - prev)
            stage, prev = next_stage, end

    def serve(self, requests: Sequence[Request]) -> ServingReport:
        """Run the whole request stream; returns the latency report."""
        if not requests:
            raise WorkloadError("no requests to serve")
        batches = form_batches(requests, self.policy)
        executor = Executor(self.hw)
        obs = self.obs
        rt = self.reqtracer
        #: Only a fault-aware store ever counts ``tier.degraded_keys``.
        fault_store = self._fault_store is not None
        before = self._begin_run(requests)
        collector = self.collector
        if collector is not None:
            collector.begin_run(min(r.arrival_time for r in requests))
        gpu_free_at = 0.0
        # Batches partition ``requests`` contiguously in order, so each
        # batch's latency bookkeeping is one array slice (no per-request
        # Python loop on the hot path).
        arrival_arr = np.fromiter(
            (r.arrival_time for r in requests), dtype=np.float64,
            count=len(requests),
        )
        offsets = np.zeros(len(batches) + 1, dtype=np.intp)
        np.cumsum(
            np.fromiter((b.size for b in batches), dtype=np.intp,
                        count=len(batches)),
            out=offsets[1:],
        )
        if rt is not None:
            rt.begin_run(
                np.fromiter(
                    (r.request_id for r in requests), dtype=np.int64,
                    count=len(requests),
                ),
                arrival_arr,
            )
        latencies: List[np.ndarray] = []
        sizes: List[int] = []
        probabilities: List[np.ndarray] = []
        for i, batch in enumerate(batches):
            dispatch_at = max(batch.formed_at, gpu_free_at)
            start = dispatch_at
            if self.refresher is not None:
                busy_until = self.refresher.run_idle(gpu_free_at, start)
                start = max(start, busy_until)
            bt = None
            if rt is not None:
                bt = rt.begin_batch(
                    i, int(offsets[i]), int(offsets[i + 1]), batch.formed_at
                )
                bt.dispatched(dispatch_at)
                if start > dispatch_at:
                    # The refresher's overrunning quantum delayed this
                    # batch — the trace's only source of refresh charge.
                    bt.refresh_wait(start - dispatch_at)
            degraded_before = (
                obs.total("tier.degraded_keys") if fault_store else 0
            )
            executor.reset()
            _, batch_probs, service_time = self._run_traced_batch(
                i, self._to_trace_batch(batch), executor, start, trace=bt
            )
            executor.drain()
            finish = start + service_time
            if bt is not None:
                rt.finish_batch(bt, finish)
            gpu_free_at = finish
            sizes.append(batch.size)
            obs.inc("serving.batches")
            obs.inc("serving.batched_requests", batch.size)
            if batch_probs is not None:
                probabilities.append(batch_probs)
            if (
                fault_store
                and obs.total("tier.degraded_keys") > degraded_before
            ):
                obs.inc("serving.degraded_requests", batch.size)
            batch_latencies = finish - arrival_arr[offsets[i]:offsets[i + 1]]
            latencies.append(batch_latencies)
            if collector is not None:
                collector.observe_batch(
                    finish, batch_latencies.tolist(),
                    first_request=int(offsets[i]),
                )
            if self.autotuner is not None:
                self.autotuner.on_batch_complete(finish)
        if collector is not None:
            collector.flush(gpu_free_at)
        if rt is not None and rt.finalize_on_serve:
            rt.finalize(obs)
        report = self._finalize_report(
            requests, np.concatenate(latencies), arrival_arr, sizes,
            gpu_free_at, before,
        )
        if probabilities:
            report.probabilities = np.concatenate(probabilities)
        return report
