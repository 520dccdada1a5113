"""Per-request tracing: sampling contract, conservation law, root-cause.

Four contracts pin the tracer (``docs/observability.md``):

- **conservation** — a trace's exclusive segments telescope back to its
  end-to-end latency within float tolerance, for *any* stage/wait/scale
  /route configuration (property test) and for every trace the serving
  loops and the cluster router actually materialize (integration);
- **tail retention** — with tail capture on, 100% of SLA violators are
  sampled and root-caused, whatever the fault schedule does;
- **zero-cost off switch** — an untraced run emits no ``reqtrace.*``
  metrics and its latencies are byte-identical to a traced run's (the
  tracer only observes instants the loops already computed);
- **deterministic classification** — the dominant-segment root cause is
  a pure function of the decomposition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlecheConfig, FlecheEmbeddingLayer, default_platform
from repro.cluster import ClusterConfig, ClusterRouter
from repro.errors import ConfigError
from repro.faults import (
    FaultSchedule,
    ReplicaCrash,
    ReplicaSlowdown,
)
from repro.obs import (
    CAUSE_PRIORITY,
    MetricsRegistry,
    RequestTracer,
    SEGMENTS,
    TraceConfig,
    TraceContext,
    classify,
    conserves,
    decompose,
    install_reqtrace_laws,
)
from repro.obs import reqtrace
from repro.obs.reqtrace import RequestTrace, _finish_trace, sample_masks
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.serving.server import InferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


@pytest.fixture(scope="module")
def hw():
    return default_platform()


@pytest.fixture(scope="module")
def dataset():
    return uniform_tables_spec(
        num_tables=4, corpus_size=4_000, alpha=-1.2, dim=16
    )


def make_server(dataset, hw, pipelined=True, tracer=None):
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.1), hw)
    cls = PipelinedInferenceServer if pipelined else InferenceServer
    server = cls(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
    )
    if tracer is not None:
        server.observers.append(tracer)
    return server


def reqtrace_counters(report):
    return {
        name: value
        for name, value in report.metrics.to_dict()["counters"].items()
        if name.startswith("reqtrace")
    }


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestTraceConfig:
    def test_defaults(self):
        cfg = TraceConfig()
        assert cfg.head_interval == 64
        assert cfg.sla_budget is None
        assert reqtrace.CAPTURE_TAIL

    def test_rejects_negative_interval(self):
        with pytest.raises(ConfigError):
            TraceConfig(head_interval=-1)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            TraceConfig(sla_budget=0.0)


# ---------------------------------------------------------------------------
# Conservation law + classifier: property tests over synthetic traces
# ---------------------------------------------------------------------------

_seconds = st.floats(
    min_value=0.0, max_value=1e-2, allow_nan=False, allow_infinity=False
)

_stages = st.lists(
    st.tuples(
        st.sampled_from(["index", "fetch", "copy", "dense", "custom"]),
        _seconds,  # inter-stage wait
        _seconds,  # exec
    ),
    min_size=0, max_size=6,
)

_route = st.one_of(
    st.none(),
    st.sampled_from(
        ["hedge_wait", "failover_redispatch", "breaker_fastfail"]
    ),
)


@st.composite
def synthetic_traces(draw):
    """A RequestTrace whose latency telescopes from its own terms —
    exactly the invariant the serving loop guarantees by construction."""
    queue = draw(_seconds)
    stages = draw(_stages)
    scale = draw(st.floats(min_value=1.0, max_value=8.0, allow_nan=False))
    route_wait = draw(_seconds)
    route_cause = draw(_route)
    coalesced = draw(st.integers(min_value=0, max_value=5))
    replica_side = queue + sum(w + e for _, w, e in stages)
    return RequestTrace(
        context=TraceContext(draw(st.integers(0, 2**31))),
        arrival=0.0,
        latency=route_wait + replica_side * scale,
        batch_index=0,
        queue=queue,
        stages=tuple(stages),
        coalesced_keys=coalesced,
        scale=scale,
        route_wait=route_wait,
        route_cause=route_cause,
    )


class TestConservationProperty:
    @given(trace=synthetic_traces())
    @settings(max_examples=200, deadline=None)
    def test_segments_sum_to_latency(self, trace):
        segments = decompose(trace)
        assert conserves(segments, trace.latency)
        assert all(value >= 0.0 for value in segments.values())
        assert set(segments) <= set(SEGMENTS)

    @given(trace=synthetic_traces())
    @settings(max_examples=200, deadline=None)
    def test_classifier_picks_a_dominant_segment(self, trace):
        segments = decompose(trace)
        tag = classify(segments)
        positive = {k: v for k, v in segments.items() if v > 0.0}
        if not positive:
            assert tag == "unattributed"
        else:
            assert tag in positive
            assert positive[tag] == max(positive.values())
            # Deterministic: same decomposition, same tag.
            assert classify(dict(segments)) == tag

    def test_exact_tie_breaks_by_priority(self):
        tag = classify({"queue": 1e-3, "pcie_wait": 1e-3, "host": 1e-3})
        ranked = [
            CAUSE_PRIORITY.index(c) for c in ("queue", "pcie_wait", "host")
        ]
        assert tag == CAUSE_PRIORITY[min(ranked)]

    def test_shed_short_circuits(self):
        assert classify({"shed": 0.0, "queue": 5.0}) == "shed"

    def test_finish_trace_counts_conservation(self):
        registry = MetricsRegistry()
        trace = RequestTrace(
            context=TraceContext(7), arrival=0.0, latency=2e-3,
            batch_index=0, queue=1e-3,
            stages=(("fetch", 0.0, 1e-3),),
        )
        _finish_trace(trace, registry)
        counters = registry.snapshot().to_dict()["counters"]
        assert counters["reqtrace.conservation_checked"] == 1
        assert counters["reqtrace.conservation_ok"] == 1
        assert trace.conserved


# ---------------------------------------------------------------------------
# Sampling masks: head slice + 100% tail retention (property)
# ---------------------------------------------------------------------------


class TestSamplingProperty:
    @given(
        latencies=st.lists(
            st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False),
            min_size=1, max_size=200,
        ),
        interval=st.integers(min_value=0, max_value=16),
        budget=st.floats(min_value=1e-5, max_value=5e-3, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_violator_is_retained(self, latencies, interval, budget):
        lat = np.asarray(latencies)
        config = TraceConfig(head_interval=interval, sla_budget=budget)
        head, tail, violating = sample_masks(config, np.arange(len(lat)), lat)
        sampled = head | tail
        # Tail capture retains exactly the violating set.
        assert np.array_equal(tail, violating)
        assert np.all(sampled[violating])
        # Head sampling is the deterministic id slice.
        if interval:
            assert np.array_equal(
                head, np.arange(len(lat)) % interval == 0
            )
        else:
            assert not head.any()

    def test_capture_tail_off_drops_violators_to_head_only(self, monkeypatch):
        monkeypatch.setattr(reqtrace, "CAPTURE_TAIL", False)
        lat = np.array([1.0, 1.0, 1.0, 1.0])
        config = TraceConfig(head_interval=2, sla_budget=1e-3)
        head, tail, violating = sample_masks(config, np.arange(4), lat)
        assert violating.all() and not tail.any()
        assert np.array_equal(head | tail, head)


# ---------------------------------------------------------------------------
# Serving integration: both loops, conservation + zero-cost off switch
# ---------------------------------------------------------------------------


class TestServingIntegration:
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_traced_run_conserves_and_counts(self, dataset, hw, pipelined):
        reqs = PoissonArrivals(dataset, 80_000.0, seed=3).generate(500)
        tracer = RequestTracer(TraceConfig(
            head_interval=16, sla_budget=2e-3,
        ))
        server = make_server(dataset, hw, pipelined, tracer=tracer)
        report = server.serve(reqs)
        assert report.traced_requests == len(reqs)
        assert report.sampled_traces == len(tracer.traces) > 0
        counters = reqtrace_counters(report)
        assert counters["reqtrace.requests"] == len(reqs)
        assert (
            counters["reqtrace.sampled"]
            + counters["reqtrace.dropped"] == len(reqs)
        )
        for trace in tracer.traces:
            assert trace.conserved, trace.to_dict()
            assert conserves(trace.segments, trace.latency)
        assert not server.obs.audit()

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_untraced_run_is_byte_identical(self, dataset, hw, pipelined):
        reqs = PoissonArrivals(dataset, 80_000.0, seed=4).generate(400)
        plain = make_server(dataset, hw, pipelined).serve(reqs)
        traced = make_server(
            dataset, hw, pipelined,
            tracer=RequestTracer(TraceConfig(sla_budget=2e-3)),
        ).serve(reqs)
        assert np.array_equal(plain.latencies, traced.latencies)
        assert reqtrace_counters(plain) == {}
        assert plain.rootcause == {}
        assert plain.traced_requests == plain.sampled_traces == 0

    def test_violators_carry_rootcause(self, dataset, hw):
        reqs = PoissonArrivals(dataset, 80_000.0, seed=5).generate(400)
        tracer = RequestTracer(TraceConfig(
            head_interval=0, sla_budget=1e-6,  # everything violates
        ))
        report = make_server(dataset, hw, tracer=tracer).serve(reqs)
        assert report.sampled_traces == len(reqs)
        assert all(t.rootcause for t in tracer.traces)
        assert sum(report.rootcause.values()) == len(reqs)
        counters = reqtrace_counters(report)
        assert counters["reqtrace.tail_retained"] == len(reqs)
        assert counters["reqtrace.sla_violations"] == len(reqs)

    def test_reqtrace_laws_flag_forged_counters(self):
        registry = MetricsRegistry()
        install_reqtrace_laws(registry)
        registry.inc("reqtrace.requests", 10)
        registry.inc("reqtrace.sampled", 4)
        registry.inc("reqtrace.dropped", 5)  # 4 + 5 != 10
        assert any(
            "reqtrace" in v for v in registry.audit()
        )


# ---------------------------------------------------------------------------
# Cluster integration: tail retention under random fault schedules
# ---------------------------------------------------------------------------


def random_fault_schedule(rng, horizon):
    """A random mix of crashes and slowdowns inside the run window.

    The router supports at most one crash window per replica, so crash
    victims are drawn without replacement; slowdowns are unrestricted.
    """
    events = []
    crashable = [0, 1, 2]
    for _ in range(rng.integers(1, 4)):
        start = float(rng.uniform(0.1, 0.6) * horizon)
        duration = float(rng.uniform(0.1, 0.4) * horizon)
        if crashable and rng.random() < 0.5:
            victim = crashable.pop(int(rng.integers(len(crashable))))
            events.append(ReplicaCrash(
                replica=victim, start=start, duration=duration,
            ))
        else:
            events.append(ReplicaSlowdown(
                replica=int(rng.integers(0, 3)), start=start,
                duration=duration, factor=float(rng.uniform(2.0, 6.0)),
            ))
    return FaultSchedule(events)


class TestClusterTailRetention:
    HORIZON = 0.03
    SLA = 2e-3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_violators_rootcaused_under_random_faults(
        self, dataset, hw, seed
    ):
        rng = np.random.default_rng(seed)
        requests = PoissonArrivals(
            dataset, 50_000.0, seed=seed + 10
        ).generate_until(self.HORIZON)
        router = ClusterRouter(
            dataset, hw,
            config=ClusterConfig(num_replicas=3),
            schedule=random_fault_schedule(rng, self.HORIZON),
            trace=TraceConfig(sla_budget=self.SLA),
        )
        report = router.serve(requests)
        assert report.rootcause is not None
        # Every SLA violator was retained and carries a cause tag.
        assert report.rootcause["coverage"] == 1.0
        assert (
            report.rootcause["tagged"] == report.rootcause["violations"]
        )
        counters = report.metrics.to_dict()["counters"]
        assert (
            counters.get("reqtrace.tail_retained", 0)
            == counters.get("reqtrace.tail_eligible", 0)
        )
        # Every non-shed sampled trace conserves.
        conservation = report.rootcause["conservation"]
        assert conservation["ok"] == conservation["checked"]
        for trace in report.traces:
            if not trace.shed:
                assert trace.conserved, trace.to_dict()
        assert not router.obs.audit()

    def test_trace_payload_round_trips_through_analyzer(
        self, dataset, hw
    ):
        from repro.obs import analyze_payload

        requests = PoissonArrivals(
            dataset, 50_000.0, seed=21
        ).generate_until(self.HORIZON)
        router = ClusterRouter(
            dataset, hw,
            config=ClusterConfig(num_replicas=2),
            schedule=FaultSchedule([ReplicaCrash(
                replica=0, start=0.01, duration=0.012,
            )]),
            trace=TraceConfig(sla_budget=self.SLA),
        )
        report = router.serve(requests)
        payload = report.trace_payload(self.SLA)
        assert payload["kind"] == "reqtrace"
        assert payload["sampled"] == len(report.traces)
        analysis = analyze_payload(payload, top=5)
        assert len(analysis["top"]) <= 5
        latencies = [
            np.inf if row["latency_s"] is None else row["latency_s"]
            for row in analysis["top"]
        ]
        assert latencies == sorted(latencies, reverse=True)

    def test_untraced_router_is_byte_identical(self, dataset, hw):
        requests = PoissonArrivals(
            dataset, 50_000.0, seed=22
        ).generate_until(self.HORIZON)
        schedule = FaultSchedule([ReplicaCrash(
            replica=0, start=0.01, duration=0.012,
        )])

        def run(trace):
            return ClusterRouter(
                dataset, hw, config=ClusterConfig(num_replicas=2),
                schedule=schedule, trace=trace,
            ).serve(requests)

        plain = run(None)
        traced = run(TraceConfig(sla_budget=self.SLA))
        assert np.array_equal(plain.latencies, traced.latencies)
        assert plain.disposition_counts() == traced.disposition_counts()
        assert reqtrace_counters(plain) == {}
        assert plain.traces is None and plain.rootcause is None
