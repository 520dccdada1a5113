"""Tests for pipelined serving: stages, overlap, and miss coalescing."""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro import DeepCrossNetwork
from repro.baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from repro.cluster import ClusterConfig, ClusterRouter, hot_head_victim
from repro.core.config import FlecheConfig
from repro.core.precision import PrecisionConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, SimulationError
from repro.faults import (
    DegradeConfig,
    FaultInjector,
    FaultSchedule,
    ReplicaCrash,
    RetryPolicy,
    ShardOutage,
)
from repro.gpusim.clock import Timeline
from repro.gpusim.executor import SharedResource
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.obs import WindowedCollector, default_serving_slos
from repro.obs.reqtrace import RequestTracer, TraceConfig
from repro.obs.spans import SpanTracer
from repro.refresh import (
    RefreshScheduler,
    UpdateLog,
    UpdatePublisher,
    UpdateSubscriber,
)
from repro.serving.arrivals import PoissonArrivals
from repro.serving.arrivals import request_columns
from repro.serving.batcher import BatchingPolicy, batch_bounds
from repro.serving.pipeline import InFlightMissTable, PipelinedInferenceServer
from repro.serving.server import InferenceServer, ServingReport
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


@pytest.fixture(scope="module")
def dataset():
    return uniform_tables_spec(
        num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
    )


def make_servers(dataset, hw, cls, *, include_dense=True, warm=True,
                 cache_ratio=0.05, **kwargs):
    """One fresh server (fresh store + cache) per call, optionally warmed."""
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=cache_ratio), hw
    )
    model = DeepCrossNetwork(
        num_tables=dataset.num_tables, embedding_dim=dataset.dim
    )
    server = cls(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        model=model, include_dense=include_dense, **kwargs,
    )
    if warm:
        server.serve(PoissonArrivals(dataset, 50_000.0, seed=1).generate(300))
    return server


#: A load well past the depth-1 service capacity of the small dataset,
#: so consecutive batches genuinely overlap at depth >= 2.
OVERLOAD = 2_000_000.0


@pytest.fixture(scope="module")
def requests(dataset):
    return PoissonArrivals(dataset, OVERLOAD, seed=2).generate(900)


# ---------------------------------------------------------------------------
# Simulation primitives
# ---------------------------------------------------------------------------


class TestSharedResource:
    def test_serialises_occupancies(self):
        res = SharedResource("host")
        assert res.next_start(0.0) == 0.0
        res.occupy(0.0, 2.0)
        assert res.free_at == 2.0
        assert res.next_start(1.0) == 2.0
        res.occupy(res.next_start(1.0), 5.0)
        assert res.free_at == 5.0
        assert res.busy_time == pytest.approx(5.0)
        assert res.grants == 2

    def test_rejects_time_travel(self):
        res = SharedResource("pcie")
        res.occupy(0.0, 1.0)
        with pytest.raises(SimulationError):
            res.occupy(0.5, 0.7)  # starts before free_at
        with pytest.raises(SimulationError):
            res.occupy(2.0, 1.0)  # ends before it starts


class TestTimelineActive:
    def test_active_excludes_waits(self):
        t = Timeline("cpu")
        t.advance(2.0)
        t.advance_to(10.0)
        t.advance(1.0)
        assert t.now == pytest.approx(11.0)
        assert t.active == pytest.approx(3.0)
        t.reset()
        assert t.active == 0.0


# ---------------------------------------------------------------------------
# The in-flight miss table
# ---------------------------------------------------------------------------


class TestInFlightMissTable:
    def test_publish_match_retire(self):
        table = InFlightMissTable()
        table.set_owner(0)
        keys = np.array([10, 20, 30], np.uint64)
        table.publish(keys, np.ones((3, 4), np.float32) * 7.0)
        assert len(table) == 3

        mask, rows, degraded = table.match(
            np.array([20, 40, 30], np.uint64), dim=4
        )
        assert mask.tolist() == [True, False, True]
        assert rows.shape == (2, 4)
        assert (rows == 7.0).all()
        assert degraded == 0

        assert table.retire(1) == 0  # wrong owner: nothing dropped
        assert table.retire(0) == 3
        assert len(table) == 0
        assert table.stats.published_keys == 3
        assert table.stats.coalesced_keys == 2
        assert table.stats.retired_keys == 3

    def test_degraded_entries_counted(self):
        table = InFlightMissTable()
        table.set_owner("b1")
        table.publish(
            np.array([5], np.uint64), np.zeros((1, 2), np.float32),
            degraded=True,
        )
        _, _, degraded = table.match(np.array([5], np.uint64), dim=2)
        assert degraded == 1


# ---------------------------------------------------------------------------
# Depth 1: InferenceServer's default configuration of the loop
# ---------------------------------------------------------------------------


class TestDepthOneEquivalence:
    def test_depth_validation(self, dataset, hw):
        with pytest.raises(ConfigError):
            make_servers(dataset, hw, PipelinedInferenceServer, warm=False,
                         depth=0)

    def test_inference_server_defaults_to_depth_one(
        self, dataset, hw, requests
    ):
        default = make_servers(dataset, hw, InferenceServer)
        explicit = make_servers(dataset, hw, PipelinedInferenceServer, depth=1)
        a = default.serve(requests)
        b = explicit.serve(requests)
        assert a.metrics.to_dict() == b.metrics.to_dict()
        assert np.array_equal(a.latencies, b.latencies)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert a.span == b.span
        assert default.last_run.depth == explicit.last_run.depth == 1
        # One batch in flight: no miss table is built.
        assert default.last_run.coalescing is None
        assert a.coalesced_keys == 0

    def test_degraded_accounting_under_outage(self, dataset, hw):
        schedule = FaultSchedule([
            ShardOutage(shard=s, start=2e-3, duration=6e-3)
            for s in range(4)
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
        server = InferenceServer(
            dataset, layer, hw,
            policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        )
        reqs = PoissonArrivals(dataset, 40_000.0, seed=5).generate(400)
        report = server.serve(reqs)
        assert report.degraded_requests > 0
        assert report.retries > 0
        assert report.fault_windows == [(2e-3, 8e-3)]


# ---------------------------------------------------------------------------
# Depth >= 2: overlap with dependencies respected
# ---------------------------------------------------------------------------


def batch_finishes(report, requests, policy):
    """Reconstruct per-batch finish instants from per-request latencies."""
    stops, formed_at = batch_bounds(request_columns(requests).arrivals, policy)
    finishes = []
    offset = 0
    for stop, sealed in zip(stops, formed_at):
        n = stop - offset
        fin = report.latencies[offset:offset + n] + report.arrival_times[
            offset:offset + n
        ]
        # Every request of a batch completes at the same instant.
        assert np.allclose(fin, fin[0], rtol=0, atol=1e-12)
        finishes.append((sealed, float(fin[0])))
        offset += n
    assert offset == len(report.latencies)
    return finishes


class TestPipelineOverlap:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_dependencies_never_violated(self, dataset, hw, requests, depth):
        server = make_servers(
            dataset, hw, PipelinedInferenceServer, depth=depth
        )
        report = server.serve(requests)
        finishes = batch_finishes(report, requests, server.policy)
        for i, (formed_at, finish) in enumerate(finishes):
            # A batch cannot complete before it formed.
            assert finish > formed_at
            # The depth gate: batch i dispatches no earlier than the
            # completion of batch i - depth.
            if i >= depth:
                assert finish > finishes[i - depth][1]
        # Batches complete in order.
        ends = [f for _, f in finishes]
        assert ends == sorted(ends)

    def test_overlap_beats_sequential_under_load(self, dataset, hw, requests):
        seq = make_servers(dataset, hw, InferenceServer).serve(requests)
        pipe_server = make_servers(
            dataset, hw, PipelinedInferenceServer, depth=2
        )
        pipe = pipe_server.serve(requests)
        assert pipe.span < seq.span
        assert pipe.p99_latency < seq.p99_latency
        # A serial resource can never be busy longer than the makespan.
        for name, (busy, grants) in pipe_server.last_run.resource_busy.items():
            assert busy <= pipe.span + 1e-12, name
            assert grants > 0

    def test_default_stage_scheme_works_pipelined(self, dataset, hw, requests):
        """Schemes without a staged query run via the default single stage."""
        def build(cls, **kwargs):
            store = EmbeddingStore(dataset.table_specs(), hw)
            layer = PerTableCacheLayer(
                store, PerTableConfig(cache_ratio=0.05), hw
            )
            model = DeepCrossNetwork(
                num_tables=dataset.num_tables, embedding_dim=dataset.dim
            )
            return cls(
                dataset, layer, hw,
                policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
                model=model, include_dense=True, **kwargs,
            )

        a = build(InferenceServer).serve(requests)
        b = build(PipelinedInferenceServer, depth=2).serve(requests)
        # The whole query is one host stage, so cache state evolves in
        # batch order exactly as sequentially; only timing overlaps.
        assert (a.hits, a.misses) == (b.hits, b.misses)
        assert np.array_equal(a.probabilities, b.probabilities)


# ---------------------------------------------------------------------------
# Cross-batch miss coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def coalescing_run(self, dataset, hw, cls=PipelinedInferenceServer,
                       **kwargs):
        """Cold cache + overload: overlapping batches miss the same keys.

        The spy on ``admit_and_insert`` asserts the exactly-once contract
        at its sharpest: an insertion must never target a key that still
        holds a live cache location (that would strand the old pool slot).
        Re-insertions of keys the slab-hash index *displaced* earlier are
        legitimate — the sequential loop does those too.
        """
        server = make_servers(
            dataset, hw, cls, warm=False, cache_ratio=1.0, **kwargs,
        )
        inserted = []
        cache = server.engine.scheme.cache
        original = cache.admit_and_insert

        def spy(flat_keys, vectors, dim, dram_mask=None):
            assert not cache.contains_cached(flat_keys).any()
            inserted.extend(int(k) for k in flat_keys)
            return original(flat_keys, vectors, dim, dram_mask=dram_mask)

        cache.admit_and_insert = spy
        reqs = PoissonArrivals(dataset, OVERLOAD, seed=3).generate(900)
        report = server.serve(reqs)
        return server, report, inserted

    def test_coalesced_fetch_issued_and_inserted_once(self, dataset, hw):
        _, seq_report, seq_inserted = self.coalescing_run(
            dataset, hw, cls=InferenceServer
        )
        server, report, inserted = self.coalescing_run(dataset, hw, depth=3)
        stats = server.last_run.coalescing
        assert report.coalesced_keys > 0
        assert stats.coalesced_keys == report.coalesced_keys
        assert stats.published_keys > 0
        assert stats.retired_keys <= stats.published_keys
        # The pipelined run caches the same key population but performs
        # strictly fewer insertions: a coalesced miss takes the leader's
        # vectors instead of re-fetching and re-inserting.
        assert set(inserted) == set(seq_inserted)
        assert len(inserted) < len(seq_inserted)
        # Every miss was either fetched (and at most once inserted) or
        # coalesced; coalesced keys never reach the replacement path.
        assert report.misses >= len(inserted) + report.coalesced_keys

    def test_no_pool_slots_leak(self, dataset, hw):
        server, report, _ = self.coalescing_run(dataset, hw, depth=3)
        cache = server.engine.scheme.cache
        pool_live = sum(
            cache.pool.capacity_of(d) - cache.pool.free_of(d)
            for d in cache.pool.dims()
        )
        # Every allocated slot is either indexed or awaiting reclamation.
        assert pool_live == cache.live_entries() + cache.reclaimer.pending

    def test_coalesced_degraded_counts_keys_of_degraded_leaders(
        self, dataset, hw, monkeypatch
    ):
        """Under an all-shard outage at depth 2, followers coalesce onto
        leaders whose store answer was degraded; ``cache.coalesced_degraded``
        counts exactly the coalesced keys whose leader's fetch degraded.

        The reference reads each leader's store answer itself: a publish
        follows the store query that fetched its keys.
        """
        schedule = FaultSchedule([
            ShardOutage(shard=s, start=1e-3, duration=2e-3)
            for s in range(4)
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
        answers = []  # each store answer's degraded-key count, in order
        query_many = store.query_many

        def recording_query(*args, **kwargs):
            result = query_many(*args, **kwargs)
            answers.append(result.degraded_keys)
            return result

        monkeypatch.setattr(store, "query_many", recording_query)
        expected = []

        class ReferenceTable(InFlightMissTable):
            """The miss table, plus each live publish's sorted keys and
            whether the store answer before it degraded."""

            def __init__(self):
                super().__init__()
                self.live = []

            def publish(self, flat_keys, vectors, degraded=False):
                keys = np.sort(np.asarray(flat_keys, dtype=np.uint64))
                self.live.append((self._owner, keys, answers[-1] > 0))
                super().publish(flat_keys, vectors, degraded=degraded)

            def match(self, flat_keys, dim):
                mask, rows, degraded = super().match(flat_keys, dim)
                taken = np.asarray(flat_keys, dtype=np.uint64)[mask]
                expected.append(sum(
                    int(np.isin(taken, keys).sum())
                    for _, keys, bad in self.live if bad
                ))
                return mask, rows, degraded

            def retire(self, owner):
                self.live = [seg for seg in self.live if seg[0] != owner]
                return super().retire(owner)

        monkeypatch.setattr(
            "repro.serving.pipeline.InFlightMissTable", ReferenceTable
        )
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=2,
            policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        )
        report = server.serve(
            PoissonArrivals(dataset, 200_000.0, seed=5).generate(900)
        )
        coalesced_degraded = report.metrics.total("cache.coalesced_degraded")
        assert report.degraded_requests > 0
        assert coalesced_degraded > 0
        assert coalesced_degraded == sum(expected)
        assert coalesced_degraded <= report.coalesced_keys
        assert server.obs.audit() == []

    def test_coalesce_flag_off(self, dataset, hw):
        server, report, inserted = self.coalescing_run(
            dataset, hw, depth=3, coalesce=False
        )
        assert report.coalesced_keys == 0
        assert server.last_run.coalescing is None
        # Raced misses are re-fetched, but the replacement path still
        # skips keys a concurrent batch inserted first (spy asserts no
        # insertion ever overwrites a live cache entry).
        assert len(inserted) > 0


# ---------------------------------------------------------------------------
# Metamorphic depth differential: registry counters across depths
# ---------------------------------------------------------------------------


#: An offered load comfortably below the small dataset's sequential
#: service capacity: batches finish before the next one forms, so no two
#: batches are ever concurrently in flight and the pipeline depth is
#: metamorphically irrelevant — every registry counter must be identical
#: across depths.  (Empirically the capacity is ~300 K req/s; 40 K/s
#: leaves a wide margin.)
NON_SATURATING = 40_000.0

DEPTHS = (1, 2, 4)


def run_counters(server, requests):
    """Serve, audit, and return the run's registry counter delta."""
    report = server.serve(requests)
    assert server.obs.audit() == []
    return report, report.metrics.to_dict()["counters"]


def assert_counters_agree(counters):
    """Every depth's counter delta equals every other's — except that
    depth 1 builds no miss table, so it has no ``coalescer.*`` family."""
    shallow, deeper = counters[DEPTHS[0]], counters[DEPTHS[1]]
    assert not any(name.startswith("coalescer.") for name in shallow)
    assert shallow == {
        name: value for name, value in deeper.items()
        if not name.startswith("coalescer.")
    }
    for depth in DEPTHS[2:]:
        assert counters[depth] == deeper, depth


class TestMetamorphicDepth:
    def test_depths_agree_on_every_counter_when_unsaturated(
        self, dataset, hw
    ):
        reqs = PoissonArrivals(
            dataset, NON_SATURATING, seed=7
        ).generate(500)
        reports = {}
        counters = {}
        for depth in DEPTHS:
            server = make_servers(
                dataset, hw, PipelinedInferenceServer, depth=depth
            )
            reports[depth], counters[depth] = run_counters(server, reqs)
        assert counters[DEPTHS[0]]["cache.lookups"] > 0
        assert_counters_agree(counters)
        for depth in DEPTHS[1:]:
            assert np.array_equal(
                reports[depth].latencies, reports[DEPTHS[0]].latencies
            )
            assert np.array_equal(
                reports[depth].probabilities, reports[DEPTHS[0]].probabilities
            )

    def test_depths_agree_under_shard_outage(self, dataset, hw):
        """The depth differential survives a faulty remote tier.

        At a non-saturating rate every depth dispatches each batch at the
        same simulated instant, so the fault injector sees identical
        (shard, time) fetch sequences and every fault-path counter —
        retries, degraded keys, breaker activity — must agree too.
        """
        def build(depth):
            schedule = FaultSchedule([
                ShardOutage(shard=s, start=5e-3, duration=1.5e-2)
                for s in range(4)
            ])
            remote = RemoteParameterServer(
                dataset.table_specs(),
                injector=FaultInjector(schedule, seed=11),
                # A short per-attempt timeout keeps the worst-case batch
                # service (2 attempts x 0.2 ms on top of the base cost)
                # below the 2 ms batch-formation cadence, so the outage
                # never pushes two batches into concurrent flight.
                retry_policy=RetryPolicy.naive(timeout=2e-4),
            )
            store = TieredParameterStore(
                dataset.table_specs(), hw, dram_capacity=600, remote=remote,
                degrade=DegradeConfig(policy="stale"),
            )
            layer = FlecheEmbeddingLayer(
                store, FlecheConfig(cache_ratio=0.05), hw
            )
            return PipelinedInferenceServer(
                dataset, layer, hw, depth=depth,
                policy=BatchingPolicy(max_batch_size=64, max_delay=2e-3),
            )

        reqs = PoissonArrivals(dataset, 20_000.0, seed=5).generate(300)
        counters = {}
        reports = {}
        for depth in DEPTHS:
            reports[depth], counters[depth] = run_counters(
                build(depth), reqs
            )
        baseline = counters[DEPTHS[0]]
        # The outage actually bit: degraded service and fault-path
        # activity are present, not vacuously zero.
        assert baseline["serving.degraded_requests"] > 0
        assert baseline["tier.degraded_keys"] > 0
        assert baseline["faults.retries"] > 0
        assert_counters_agree(counters)
        for depth in DEPTHS[1:]:
            assert reports[depth].fault_windows == (
                reports[DEPTHS[0]].fault_windows
            )

    def test_saturated_depths_preserve_workload_counters(
        self, dataset, hw, requests
    ):
        """Under overload the hit/miss split legitimately shifts with
        depth (overlapping batches race the cache), but the counters the
        workload alone determines — requests, batches, total and unique
        key traffic — are depth-invariant, and the audit laws hold at
        every depth."""
        invariant_keys = (
            "serving.requests", "serving.batched_requests",
            "serving.batches", "cache.queries", "cache.lookups",
            "cache.unique_keys",
        )
        counters = {}
        for depth in DEPTHS:
            server = make_servers(
                dataset, hw, PipelinedInferenceServer, depth=depth
            )
            _, counters[depth] = run_counters(server, requests)
        baseline = counters[DEPTHS[0]]
        for depth in DEPTHS[1:]:
            for key in invariant_keys:
                assert counters[depth][key] == baseline[key], (depth, key)


# ---------------------------------------------------------------------------
# Report satellites: span definition and empty-window guards
# ---------------------------------------------------------------------------


class TestReportSatellites:
    def test_span_is_first_arrival_to_last_finish(self, dataset, hw, requests):
        for cls, kwargs in (
            (InferenceServer, {}),
            (PipelinedInferenceServer, {"depth": 2}),
        ):
            report = make_servers(dataset, hw, cls, **kwargs).serve(requests)
            finishes = report.arrival_times + report.latencies
            expected = finishes.max() - report.arrival_times.min()
            assert report.span == pytest.approx(expected, rel=0, abs=1e-15)
            assert report.throughput == pytest.approx(
                report.served / report.span
            )

    def test_empty_latencies_percentiles_are_nan(self):
        report = ServingReport(latencies=np.zeros(0))
        assert np.isnan(report.percentile(50.0))
        assert np.isnan(report.median_latency)
        assert np.isnan(report.p99_latency)


# ---------------------------------------------------------------------------
# Restored servers (the ledger's deep copy of a warmed prototype)
# ---------------------------------------------------------------------------


def update_log(dataset, horizon, rounds=4):
    """A refresh stream whose rounds are published across ``horizon``."""
    specs = dataset.table_specs()
    log = UpdateLog(retention=1_000_000)
    publisher = UpdatePublisher(log, max_batch_keys=256)
    trainer = EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in specs], [spec.dim for spec in specs],
        keys_per_round=64, seed=11,
    )
    for i in range(rounds):
        publisher.drain(trainer, now=horizon * (i + 1) / (rounds + 1))
    return log


def tiered_stack(dataset, hw, horizon):
    """A dense server over a DRAM tier whose remote shards are all out
    for a third of ``horizon``, serving stale rows, with a refresher."""
    specs = dataset.table_specs()
    schedule = FaultSchedule([
        ShardOutage(shard=s, start=0.3 * horizon, duration=0.3 * horizon)
        for s in range(4)
    ])
    store = TieredParameterStore(
        specs, hw, dram_capacity=300,
        remote=RemoteParameterServer(
            specs, injector=FaultInjector(schedule, seed=3),
            retry_policy=RetryPolicy.naive(timeout=1e-4),
        ),
        degrade=DegradeConfig(policy="stale"),
    )
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=2,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        model=DeepCrossNetwork(
            num_tables=dataset.num_tables, embedding_dim=dataset.dim
        ),
        include_dense=True,
    )
    subscriber = UpdateSubscriber(
        update_log(dataset, horizon), layer.cache, host_store=store
    )
    subscriber.bind_observability(server.obs)
    server.refresher = RefreshScheduler(subscriber, hw)
    return server


def observed_stack(dataset, hw, horizon):
    """A dense server on a mixed-precision cache with every observer:
    windowed collector + SLO engine, span and request tracer."""
    config = FlecheConfig(
        cache_ratio=0.05,
        precision=PrecisionConfig(
            fp32_share=0.25, fp16_share=0.25, int8_share=0.5
        ),
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    window = horizon / 16
    server = PipelinedInferenceServer(
        dataset, FlecheEmbeddingLayer(store, config, hw), hw, depth=2,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        model=DeepCrossNetwork(
            num_tables=dataset.num_tables, embedding_dim=dataset.dim
        ),
        include_dense=True,
    )
    server.observers += [
        SpanTracer(),
        WindowedCollector(
            window=window, sla_budget=2e-3,
            engine=default_serving_slos(2e-3),
        ),
        RequestTracer(TraceConfig(sla_budget=2e-3)),
    ]
    return server


def crashing_cluster(dataset, hw, horizon):
    """Three replicas behind the router; the hot head's owner crashes at
    a third of ``horizon`` and recovers from snapshot + log replay."""
    schedule = FaultSchedule([ReplicaCrash(
        replica=hot_head_victim(dataset, 0, 3),
        start=0.3 * horizon, duration=0.3 * horizon,
    )])
    return ClusterRouter(
        dataset, hw, ClusterConfig(num_replicas=3, hot_keys=64),
        schedule=schedule, update_log=update_log(dataset, horizon),
    )


class TestRestoredServer:
    def test_audits_its_own_cache_and_is_freed_by_refcount(
        self, dataset, hw, requests
    ):
        """The cache's pool-accounting hook is held weakly by the registry
        (``obs/registry.py``), so a restored server sits in no reference
        cycle — with the collector off it still goes when dropped — and
        the copy's registry audits the copy's cache, not the prototype's.
        :meth:`test_a_served_stack_is_freed_by_refcount` holds the other
        stacks to the same."""
        proto = make_servers(dataset, hw, PipelinedInferenceServer, depth=2)
        gc.collect()
        gc.disable()
        try:
            clone = copy.deepcopy(proto)
            clone.serve(requests)
            cache = clone.scheme.cache
            assert cache is not proto.scheme.cache
            gone = [weakref.ref(clone), weakref.ref(cache)]
            # Break the copy's pool accounting: only its own audit sees it.
            cache.pool.allocate(dataset.dim, 1, "fp32")
            assert proto.obs.audit() == []
            assert any("flatcache" in v for v in clone.obs.audit())
            del clone, cache
            assert [ref() for ref in gone] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", [
        tiered_stack, observed_stack, crashing_cluster,
    ], ids=["tiered", "observed", "cluster"])
    def test_a_served_stack_is_freed_by_refcount(self, dataset, hw, build):
        """No serving stack sits in a reference cycle: served with the
        collector off and then dropped, the server (router), every scheme
        and every store it holds are gone at once.  A store holds its
        layer's pointer invalidator weakly, the DRAM tier keeps no
        callbacks."""
        requests = PoissonArrivals(dataset, 50_000.0, seed=4).generate(800)
        horizon = requests[-1].arrival_time
        gc.collect()
        gc.disable()
        try:
            stack = build(dataset, hw, horizon)
            report = stack.serve(requests)
            servers = (
                [replica.server for replica in stack.replicas]
                if isinstance(stack, ClusterRouter) else [stack]
            )
            parts = [stack]
            for server in servers:
                parts += [server, server.scheme, server.scheme.store]
            gone = [weakref.ref(part) for part in parts]
            if build is tiered_stack:
                assert stack.obs.total("tier.pointer_invalidations") > 0
                assert stack.obs.total("refresh.applied_keys") > 0
                assert report.degraded_requests > 0
            elif build is observed_stack:
                spans, collector, tracer = stack.observers
                assert len(spans) > 0
                assert collector.closed_windows > 1
                assert tracer.traces
                del spans, collector, tracer
            else:
                assert report.disposition_counts()["failover"] > 0
            del stack, report, servers, parts, server
            assert [ref() for ref in gone] == [None] * len(gone)
        finally:
            gc.enable()
