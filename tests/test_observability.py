"""The observability layer: registry, spans, audits, and the
cross-backend conservation sweep.

Four suites:

* unit tests of :class:`~repro.obs.MetricsRegistry` (counters / gauges /
  histograms / labels, snapshot diffs, deterministic rendering) and of
  the invariant-audit hooks (conservation laws, callable checks,
  :class:`~repro.errors.AuditError`);
* unit tests of :class:`~repro.obs.SpanTracer` and its Chrome-trace
  export;
* the conservation-invariant sweep: every cache backend — Fleche (and
  its ablations), the per-table baseline (with and without CUDA graphs),
  no-cache, the reduction cache — runs the same trace and must pass the
  full law catalogue, with key totals agreeing across backends;
* the determinism regression: two runs from the same (workload seed,
  fault schedule, depth) produce byte-identical metrics JSON and
  identical span lists.
"""

import copy
import gc
import json
import weakref

import numpy as np
import pytest

from repro import (
    AuditError,
    ConfigError,
    MetricsRegistry,
    SpanTracer,
    install_conservation_laws,
)
from repro.baselines.no_cache import NoCacheLayer
from repro.baselines.optimal_cache import (
    belady_hit_rate,
    frequency_optimal_hit_rate,
)
from repro.baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from repro.baselines.reduction_cache import ReductionCache, co_occurrence_workload
from repro.core.config import FlecheConfig
from repro.core.precision import PrecisionConfig
from repro.core.engine import InferenceEngine
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import SimulationError
from repro.faults import (
    DegradeConfig,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    ShardOutage,
)
from repro.gpusim.executor import Executor
from repro.gpusim.tracing import Span
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.obs.registry import Observable, render_key
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_labels_and_totals(self):
        reg = MetricsRegistry()
        reg.inc("cache.hits")
        reg.inc("cache.hits", 4, table=1)
        reg.inc("cache.hits", 2, table=2)
        assert reg.counter("cache.hits") == 1
        assert reg.counter("cache.hits", table=1) == 4
        assert reg.total("cache.hits") == 7
        assert reg.counter("never.touched") == 0
        assert reg.total("never.touched") == 0

    def test_counters_are_monotone(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.inc("cache.hits", -1)

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.set_gauge("pool.live", 5.0)
        reg.set_gauge("pool.live", 3.0)
        assert reg.gauge("pool.live") == 3.0

    def test_histograms(self):
        reg = MetricsRegistry()
        reg.observe_many("lat", [1.0, 3.0, 2.0])
        h = reg.histogram("lat")
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.minimum == 1.0 and h.maximum == 3.0
        d = h.to_dict()
        assert d["min"] == 1.0 and d["max"] == 3.0

    def test_render_key(self):
        assert render_key("a.b", ()) == "a.b"
        key = render_key("a", (("t", "1"), ("z", "x")))
        assert key == "a{t=1,z=x}"


class TestHistogramEdges:
    def _bucketed(self):
        reg = MetricsRegistry()
        reg.declare_buckets("lat", (1.0, 2.0, 4.0))
        return reg

    def test_boundary_exact_observation_lands_in_that_bucket(self):
        """``le`` semantics: a value exactly on a bound belongs to that
        bound's bucket, not the next one."""
        reg = self._bucketed()
        reg.observe("lat", 2.0)
        stats = reg.histogram("lat")
        assert stats.bucket_counts == (0, 1, 0)
        assert stats.cumulative_buckets() == [
            (1.0, 0), (2.0, 1), (4.0, 1), (float("inf"), 1),
        ]

    def test_overflow_bucket_is_implicit(self):
        reg = self._bucketed()
        reg.observe("lat", 100.0)
        stats = reg.histogram("lat")
        assert stats.bucket_counts == (0, 0, 0)
        assert stats.cumulative_buckets()[-1] == (float("inf"), 1)

    def test_negative_observations(self):
        """Negative values are legal (deltas, temperature-style series):
        they land in the lowest bucket and min/sum reflect them."""
        reg = self._bucketed()
        reg.observe("lat", -3.0)
        reg.observe("lat", 0.5)
        stats = reg.histogram("lat")
        assert stats.bucket_counts == (2, 0, 0)
        assert stats.minimum == -3.0
        assert stats.total == pytest.approx(-2.5)

    def test_never_observed_histogram(self):
        reg = self._bucketed()
        stats = reg.histogram("lat")
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.cumulative_buckets() == [(float("inf"), 0)]
        assert stats.to_dict() == {"count": 0, "sum": 0.0}
        # Declared-but-unobserved histograms do not appear in snapshots.
        assert reg.snapshot().histograms == {}

    def test_diff_subtracts_buckets(self):
        reg = self._bucketed()
        reg.observe("lat", 0.5)
        older = reg.snapshot()
        reg.observe("lat", 1.5)
        reg.observe("lat", 9.0)
        delta = reg.snapshot().diff(older)
        stats = delta.histograms[("lat", ())]
        assert stats.count == 2
        assert stats.bucket_counts == (0, 1, 0)
        # min/max are not invertible and are dropped from diffs.
        assert "min" not in stats.to_dict()

    def test_diff_against_empty_prior(self):
        reg = self._bucketed()
        empty = MetricsRegistry().snapshot()
        reg.observe("lat", 1.0)
        delta = reg.snapshot().diff(empty)
        assert delta.histograms[("lat", ())].bucket_counts == (1, 0, 0)

    def test_declare_buckets_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.declare_buckets("lat", ())
        with pytest.raises(ConfigError):
            reg.declare_buckets("lat", (2.0, 1.0))
        with pytest.raises(ConfigError):
            reg.declare_buckets("lat", (1.0, 1.0))
        with pytest.raises(ConfigError):
            reg.declare_buckets("lat", (1.0, float("inf")))

    def test_redeclaration_rules(self):
        reg = self._bucketed()
        reg.declare_buckets("lat", (1.0, 2.0, 4.0))  # same bounds: no-op
        with pytest.raises(ConfigError):
            reg.declare_buckets("lat", (1.0, 8.0))

    def test_declaration_only_affects_later_first_observations(self):
        reg = MetricsRegistry()
        reg.observe("lat", 1.5)                      # bucketless series
        reg.declare_buckets("lat", (1.0, 2.0))
        reg.observe("lat", 1.5)
        assert reg.histogram("lat").bucket_counts == ()   # kept bucketless
        reg.observe("lat", 1.5, stream="a")               # new label set
        assert reg.histogram("lat", stream="a").bucket_counts == (0, 1)

    def test_snapshot_diff_subtracts_counters(self):
        reg = MetricsRegistry()
        reg.inc("c", 5)
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.inc("c", 3)
        reg.inc("d", 2)
        reg.observe("h", 4.0)
        delta = reg.snapshot().diff(before)
        assert delta.total("c") == 3
        assert delta.total("d") == 2
        hist = delta.histograms[("h", ())]
        assert hist.count == 1 and hist.total == 4.0
        # min/max are not invertible across a diff: omitted from JSON.
        assert "min" not in hist.to_dict()
        # Unchanged counters drop out of a diff entirely.
        reg2 = MetricsRegistry()
        reg2.inc("c", 5)
        assert reg2.snapshot().diff(reg2.snapshot()).counters == {}

    def test_to_json_is_deterministic(self):
        def build(order):
            reg = MetricsRegistry()
            for name, labels in order:
                reg.inc(name, 1, **labels)
            reg.set_gauge("g", 1.5)
            return json.dumps(reg.snapshot().to_dict(), sort_keys=True)

        a = build([("x", {"t": 1}), ("y", {}), ("x", {"t": 0})])
        b = build([("x", {"t": 0}), ("x", {"t": 1}), ("y", {})])
        assert a == b
        json.loads(a)  # strict JSON


class TestInvariantAudits:
    def test_conservation_law_holds_and_violates(self):
        reg = MetricsRegistry()
        reg.add_conservation("lookup", ["lookups"], ["hits", "misses"])
        assert reg.audit() == []  # 0 == 0 + 0: vacuously true
        reg.inc("lookups", 10)
        reg.inc("hits", 7)
        reg.inc("misses", 3)
        assert reg.audit() == []
        reg.inc("hits", 1)
        violations = reg.audit()
        assert len(violations) == 1 and "lookup" in violations[0]
        with pytest.raises(AuditError):
            reg.check()

    def test_inequality_ops(self):
        reg = MetricsRegistry()
        reg.add_conservation("bound", ["a"], ["b"], op="<=")
        reg.inc("a", 2)
        reg.inc("b", 5)
        assert reg.audit() == []
        reg.inc("a", 4)
        assert reg.audit() != []
        with pytest.raises(ConfigError):
            reg.add_conservation("bad", ["a"], ["b"], op="!=")

    def test_degraded_coalesced_law_flags_forged_counters(self):
        """``cache.coalesced_degraded`` may never exceed the coalesced keys
        it is a share of."""
        reg = MetricsRegistry()
        install_conservation_laws(reg)
        # A consistent depth-2 batch: three misses, all coalesced.
        for name in ("cache.lookups", "cache.misses", "cache.unique_keys",
                     "cache.unique_misses", "cache.coalesced_keys",
                     "coalescer.coalesced", "cache.coalesced_degraded"):
            reg.inc(name, 3)
        reg.inc("cache.table_lookups", 3, table="0")
        assert reg.audit() == []
        reg.inc("cache.coalesced_degraded")
        violations = reg.audit()
        assert len(violations) == 1
        assert "cache.degraded-coalesced-bounded" in violations[0]
        with pytest.raises(AuditError):
            reg.check()

    def test_law_registration_is_idempotent(self):
        reg = MetricsRegistry()
        install_conservation_laws(reg)
        n = len(reg.laws)
        install_conservation_laws(reg)
        assert len(reg.laws) == n

    def test_laws_fall_back_to_gauges(self):
        reg = MetricsRegistry()
        reg.add_conservation("pool", ["live", "free"], ["capacity"])
        reg.set_gauge("live", 3.0)
        reg.set_gauge("free", 5.0)
        reg.set_gauge("capacity", 8.0)
        assert reg.audit() == []
        reg.set_gauge("free", 4.0)
        assert reg.audit() != []

    def test_checks_run_before_laws(self):
        reg = MetricsRegistry()
        reg.add_conservation("pool", ["live"], ["capacity"])

        def refresh():
            # A component-style hook: refresh gauges, then report health.
            reg.set_gauge("live", 4.0)
            reg.set_gauge("capacity", 4.0)
            return True

        reg.add_check("refresh", refresh)
        assert reg.audit() == []

    def test_check_detail_is_reported(self):
        reg = MetricsRegistry()
        reg.add_check("broken", lambda: (False, "7 slots leaked"))
        violations = reg.audit()
        assert violations == ["check 'broken' failed: 7 slots leaked"]

    def test_method_hooks_do_not_keep_their_owner_alive(self):
        """A component registers its own bound method with the registry it
        holds: held strongly that is a cycle only the collector frees."""

        class Component:
            def __init__(self, registry, healthy=True):
                self.registry = registry
                self.healthy = healthy
                registry.add_check("component", self.audit)

            def audit(self):
                return self.healthy, f"component {id(self)}"

        gc.disable()
        try:
            owner = Component(MetricsRegistry(), healthy=False)
            registry, gone = owner.registry, weakref.ref(owner)
            assert registry.audit() == [
                f"check 'component' failed: component {id(owner)}"
            ]
            del owner
            assert gone() is None  # freed by reference count alone
            assert registry.audit() == []
        finally:
            gc.enable()

    def test_method_hooks_follow_a_deep_copy(self):
        """A restored (deep-copied) server's registry must audit the
        copy's components, not the prototype's."""

        class Component:
            def __init__(self, registry):
                self.registry = registry
                self.healthy = True
                registry.add_check("component", self.audit)

            def audit(self):
                return self.healthy

        proto = Component(MetricsRegistry())
        clone = copy.deepcopy(proto)
        assert clone.registry is not proto.registry
        clone.healthy = False
        assert proto.registry.audit() == []
        assert clone.registry.audit() == ["check 'component' failed"]

    def test_observable_lazy_then_rebound(self):
        class Widget(Observable):
            def poke(self):
                self.obs.inc("w.pokes")

        w = Widget()
        w.poke()  # lands in the lazy private registry
        assert w.obs.total("w.pokes") == 1
        shared = MetricsRegistry()
        w.bind_observability(shared)
        w.poke()
        assert shared.total("w.pokes") == 1
        assert w.obs is shared


# ---------------------------------------------------------------------------
# SpanTracer
# ---------------------------------------------------------------------------


class TestSpanTracer:
    def test_record_and_query(self):
        tr = SpanTracer()
        tr.spans += [
            Span("lane0", "b0:index", 0.0, 1.5, "index"),
            Span("lane1", "b1:fetch", 1.0, 2.0, "fetch"),
            Span("lane0", "b2:copy", 2.0, 0.5, "copy"),
        ]
        assert len(tr) == 3
        assert tr.tracks() == ["lane0", "lane1"]
        assert tr.busy_time("lane0") == pytest.approx(2.0)
        assert tr.span_list()[0] == ("lane0", "b0:index", 0.0, 1.5, "index")
        tr.clear()
        assert len(tr) == 0

    def test_rejects_negative_duration(self):
        tr = SpanTracer()
        with pytest.raises(SimulationError):
            tr.spans.append(Span("t", "x", 2.0, -1.0, "index"))

    def test_chrome_trace_shape(self, tmp_path):
        tr = SpanTracer()
        tr.spans.append(Span("serving", "b0:index", 0.0, 1e-3, "index"))
        trace = tr.to_chrome_trace()
        events = trace["traceEvents"]
        kinds = {e["ph"] for e in events}
        assert "X" in kinds and "M" in kinds
        x = next(e for e in events if e["ph"] == "X")
        assert x["name"] == "b0:index"
        assert x["dur"] == pytest.approx(1e3)  # microseconds
        path = tmp_path / "trace.json"
        tr.export_json(str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(trace))


# ---------------------------------------------------------------------------
# Conservation-invariant sweep: every backend, same trace, all laws hold
# ---------------------------------------------------------------------------


BACKENDS = {
    "fleche": lambda store, hw: FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05), hw),
    "fleche-no-unified": lambda store, hw: FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, use_unified_index=False), hw),
    "fleche-coupled": lambda store, hw: FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, decouple_copy=False), hw),
    "fleche-no-fusion": lambda store, hw: FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, use_fusion=False), hw),
    "per-table": lambda store, hw: PerTableCacheLayer(
        store, PerTableConfig(cache_ratio=0.05), hw),
    "per-table-graph": lambda store, hw: PerTableCacheLayer(
        store, PerTableConfig(cache_ratio=0.05, use_cuda_graph=True), hw),
    "no-cache": lambda store, hw: NoCacheLayer(store, hw),
}

# Mixed-precision backends join the law sweep only: their slimmer slots
# buy extra capacity at the same byte budget, so the fp32-capacity-based
# optimal hit-rate bound in the totals test does not apply to them.
PRECISION_BACKENDS = {
    "fleche-mixed": lambda store, hw: FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, precision=PrecisionConfig(
            fp32_share=0.25, fp16_share=0.25, int8_share=0.5,
        )), hw),
    "fleche-mixed-lfu": lambda store, hw: FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, precision=PrecisionConfig(
            fp32_share=0.1, fp16_share=0.1, int8_share=0.8,
            eviction_policy="lfu",
        )), hw),
    "fleche-hybrid-evict": lambda store, hw: FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, precision=PrecisionConfig(
            fp32_share=1.0, fp16_share=0.0, int8_share=0.0,
            eviction_policy="hybrid",
        )), hw),
}


class TestConservationSweep:
    @pytest.fixture(scope="class")
    def accesses(self, small_trace):
        return sum(batch.total_ids for batch in small_trace)

    @pytest.mark.parametrize(
        "backend", sorted({**BACKENDS, **PRECISION_BACKENDS})
    )
    def test_backend_passes_all_laws(
        self, backend, small_dataset, small_trace, hw, accesses
    ):
        store = EmbeddingStore(small_dataset.table_specs(), hw)
        make = {**BACKENDS, **PRECISION_BACKENDS}[backend]
        engine = InferenceEngine(make(store, hw), hw, include_dense=False)
        engine.run(small_trace, Executor(hw))
        engine.obs.check()
        obs = engine.obs
        # Every backend accounts for the identical access stream.
        assert obs.total("cache.lookups") == accesses
        assert obs.total("cache.hits") + obs.total("cache.misses") == accesses
        assert obs.total("cache.queries") == len(small_trace)

    def test_backends_agree_on_workload_totals(
        self, small_dataset, small_trace, hw, accesses
    ):
        """The hit/miss *split* differs per backend; the total traffic and
        the actual model inputs cannot.  Optimal-bound sanity rides along:
        Belady upper-bounds the frequency-pinned static optimal."""
        hit_rates = {}
        for backend, make in sorted(BACKENDS.items()):
            store = EmbeddingStore(small_dataset.table_specs(), hw)
            engine = InferenceEngine(make(store, hw), hw, include_dense=False)
            engine.run(small_trace, Executor(hw))
            obs = engine.obs
            hit_rates[backend] = obs.total("cache.hits") / accesses
        assert hit_rates["no-cache"] == 0.0
        assert max(hit_rates.values()) <= 1.0
        capacity = sum(
            spec.corpus_size for spec in small_dataset.table_specs()
        ) // 20  # the same 5% budget the cached backends get
        freq = frequency_optimal_hit_rate(small_trace, capacity)
        belady = belady_hit_rate(small_trace, capacity)
        assert 0.0 < belady <= 1.0
        assert 0.0 < freq <= 1.0
        # The clairvoyant preloaded-static optimal bounds every cold-start
        # backend given the same capacity budget.  (Belady does not bound
        # ``freq``: it pays compulsory misses the preloaded oracle skips.)
        assert max(hit_rates.values()) <= freq

    def test_reduction_cache_memo_law(self, hw):
        spec = uniform_tables_spec(num_tables=1, corpus_size=500, dim=8)
        store = EmbeddingStore(spec.table_specs(), hw)
        cache = ReductionCache(store, capacity=64, pooling="sum")
        reg = install_conservation_laws(MetricsRegistry())
        cache.bind_observability(reg)
        groups = co_occurrence_workload(
            num_samples=200, group_pool_size=10, ids_per_group=4,
            corpus_size=500, seed=3,
        )
        cache.pooled_batch(0, groups)
        reg.check()
        assert reg.total("memo.queries") == 200
        assert reg.total("memo.hits") == cache.memo_hits > 0
        assert reg.total("memo.lookups_saved") == cache.lookups_saved


# ---------------------------------------------------------------------------
# Determinism regression
# ---------------------------------------------------------------------------


class TestDeterminism:
    def _faulted_run(self, hw):
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
        )
        schedule = FaultSchedule([
            ShardOutage(shard=s, start=3e-4, duration=5e-3) for s in range(4)
        ])
        remote = RemoteParameterServer(
            dataset.table_specs(),
            injector=FaultInjector(schedule, seed=11),
            retry_policy=RetryPolicy.naive(timeout=1e-3),
        )
        store = TieredParameterStore(
            dataset.table_specs(), hw, dram_capacity=600, remote=remote,
            degrade=DegradeConfig(policy="stale"),
        )
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
        tracer = SpanTracer()
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=3,
            policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        )
        server.observers.append(tracer)
        reqs = PoissonArrivals(dataset, 400_000.0, seed=5).generate(500)
        report = server.serve(reqs)
        return report, tracer

    def test_identical_runs_are_byte_identical(self, hw):
        """Same (workload seed, fault schedule, depth) twice, from fresh
        servers: the metrics JSON and the Chrome-trace span list must be
        byte-for-byte identical."""
        report_a, tracer_a = self._faulted_run(hw)
        report_b, tracer_b = self._faulted_run(hw)
        metrics_a = json.dumps(report_a.metrics.to_dict(), sort_keys=True)
        metrics_b = json.dumps(report_b.metrics.to_dict(), sort_keys=True)
        assert metrics_a == metrics_b
        assert tracer_a.span_list() == tracer_b.span_list()
        chrome_a = json.dumps(tracer_a.to_chrome_trace(), sort_keys=True)
        chrome_b = json.dumps(tracer_b.to_chrome_trace(), sort_keys=True)
        assert chrome_a == chrome_b
        # The run exercised the interesting paths, not a trivial fixture.
        counters = report_a.metrics.to_dict()["counters"]
        assert counters["serving.degraded_requests"] > 0
        assert counters.get("cache.coalesced_keys", 0) > 0
        assert len(tracer_a.span_list()) > 0


def _catalogue():
    registry = MetricsRegistry()
    install_conservation_laws(registry)
    return registry


def _side_totals(registry, law):
    totals = {}
    for (name, _), value in registry.snapshot().counters.items():
        totals[name] = totals.get(name, 0) + value
    return (sum(totals.get(n, 0) for n in law.lhs),
            sum(totals.get(n, 0) for n in law.rhs))


def _restore_others(registry, keep):
    """Raise the short side of every violated law but ``keep``, never
    touching a metric ``keep`` names, until only ``keep`` can fail."""
    own = set(keep.lhs) | set(keep.rhs) if keep is not None else set()
    for _ in range(len(registry.laws) * 2):
        broken = [law for law in registry.laws if law is not keep
                  and f"law {law.name!r}" in " ".join(registry.audit())]
        if not broken:
            return
        for law in broken:
            left, right = _side_totals(registry, law)
            short = law.rhs if left > right else law.lhs
            name = next(n for n in short if n not in own)
            registry.inc(name, abs(left - right))
    raise AssertionError("the catalogue did not settle")


def _consistent_state():
    """Every law's every metric nonzero, every law holding."""
    registry = _catalogue()
    for law in registry.laws:
        for name in law.lhs + law.rhs:
            registry.inc(name, 3)
    _restore_others(registry, None)
    assert registry.audit() == []
    return registry


_LAWS = [law.name for law in _catalogue().laws]


def test_the_catalogue_has_its_29_laws():
    assert len(_LAWS) == 29


@pytest.mark.parametrize("name", _LAWS)
def test_every_installed_law_trips(name):
    """Moving one side of any installed law breaks that law alone, and
    ``check`` raises on it."""
    registry = _consistent_state()
    law = next(law for law in registry.laws if law.name == name)
    left, right = _side_totals(registry, law)
    # Grow the side the law bounds from above past the other side.
    grown = law.rhs if law.op == ">=" else law.lhs
    registry.inc(grown[0], abs(left - right) + 1)
    _restore_others(registry, law)
    violations = registry.audit()
    assert len(violations) == 1 and f"law {name!r}" in violations[0]
    with pytest.raises(AuditError):
        registry.check()

