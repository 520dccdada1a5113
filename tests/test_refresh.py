"""Tests for the online model-refresh subsystem (log/publisher/
subscriber/scheduler) and its serving integration."""

import numpy as np
import pytest

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.errors import ConfigError, RefreshError
from repro.faults import FaultSchedule, SlowSubscriber, UpdateLogOutage
from repro.model.trainer import EmbeddingDeltaTrainer, delta_vectors
from repro.obs import MetricsRegistry, install_conservation_laws
from repro.refresh import (
    RefreshScheduler,
    TableDelta,
    UpdateLog,
    UpdatePublisher,
    UpdateSubscriber,
    fingerprint,
)
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs

DIM = 16


def _has_refresh_metrics(server):
    """Whether any ``refresh.*`` counter or gauge exists on the server."""
    snapshot = server.obs.snapshot()
    return any(
        name.startswith("refresh.")
        for name, _ in [*snapshot.counters, *snapshot.gauges]
    )


def build_cache(ratio=0.5, corpora=(400, 400)):
    specs = make_table_specs(list(corpora), [DIM] * len(corpora))
    cache = FlatCache(
        specs,
        FlecheConfig(cache_ratio=ratio, unified_index_fraction=1.0),
    )
    cache.set_unified_capacity(50)
    cache.tick()
    return cache


def fill(cache, table, ids):
    features = np.asarray(ids, dtype=np.uint64)
    keys = cache.encode(table, features)
    cache.admit_and_insert(
        keys, reference_vectors(table, features, DIM), DIM
    )
    return keys


def delta(table, ids, version=1):
    ids = np.asarray(ids, dtype=np.uint64)
    return {table: (ids, delta_vectors(table, ids, DIM, version))}


class TestUpdateLog:
    def test_offsets_are_monotonic_and_never_reused(self):
        log = UpdateLog()
        offsets = [
            log.append(v, delta(0, [v], version=v), published_at=float(v))
            for v in range(1, 5)
        ]
        assert offsets == [0, 1, 2, 3]
        assert log.latest_offset == 3
        assert log.next_offset == 4

    def test_version_must_not_go_backwards(self):
        log = UpdateLog()
        log.append(3, delta(0, [1], version=3))
        with pytest.raises(RefreshError):
            log.append(2, delta(0, [1], version=2))

    def test_publish_time_must_not_go_backwards(self):
        log = UpdateLog()
        log.append(1, delta(0, [1]), published_at=5.0)
        with pytest.raises(RefreshError):
            log.append(2, delta(0, [1]), published_at=4.0)

    def test_unpublished_offset_fails_loudly(self):
        log = UpdateLog()
        with pytest.raises(RefreshError):
            log.read(0)

    def test_retention_trims_and_trimmed_reads_fail_loudly(self):
        log = UpdateLog(retention=2)
        for v in range(1, 5):
            log.append(v, delta(0, [v, v + 10], version=v))
        assert log.first_offset == 2
        assert len(log) == 2
        with pytest.raises(RefreshError, match="trimmed"):
            log.read(0)
        # Metadata survives the trim exactly.
        assert log.keys_between(0, 3) == 8
        assert log.keys_between(0, 0) == 2
        assert log.total_keys == 8
        # Bounds outside [0, head] are clamped.
        assert log.keys_between(-3, 3) == 8
        assert log.keys_between(1, 9) == 6

    def test_replay_is_deterministic(self):
        log = UpdateLog()
        for v in range(1, 4):
            log.append(v, delta(0, [v, v + 1], version=v),
                       published_at=float(v))
        first = [log.read(offset) for offset in range(log.next_offset)]
        second = [log.read(offset) for offset in range(log.next_offset)]
        assert [b.offset for b in first] == [0, 1, 2]
        for a, b in zip(first, second):
            assert a.model_version == b.model_version
            for da, db in zip(a.deltas, b.deltas):
                np.testing.assert_array_equal(da.feature_ids, db.feature_ids)
                assert da.vectors.tobytes() == db.vectors.tobytes()

    def test_replay_up_to_gates_on_publish_time(self):
        log = UpdateLog()
        for v in range(1, 4):
            log.append(v, delta(0, [v], version=v), published_at=float(v))
        assert log.latest_published_offset(2.0) == 1
        assert log.latest_published_offset(0.5) == -1

    def test_version_queries_are_time_gated(self):
        log = UpdateLog()
        assert log.latest_version() == 0
        log.append(1, delta(0, [1]), published_at=1.0)
        log.append(5, delta(0, [2], version=5), published_at=3.0)
        assert log.latest_version(0.5) == 0
        assert log.latest_version(1.0) == 1
        assert log.latest_version(10.0) == 5
        assert log.latest_published_offset(2.0) == 0
        assert log.latest_published_offset(3.0) == 1

    def test_outage_blocks_payload_but_not_metadata(self):
        schedule = FaultSchedule([UpdateLogOutage(start=1.0, duration=2.0)])
        log = UpdateLog(schedule=schedule)
        log.append(1, delta(0, [1, 2]), published_at=0.5)
        assert log.available(0.5)
        assert not log.available(1.5)
        with pytest.raises(RefreshError, match="outage"):
            log.read(0, now=1.5)
        # The control plane keeps answering during the outage.
        assert log.latest_version(1.5) == 1
        assert log.keys_between(0, 0) == 2
        # And payload reads come back once the window closes.
        assert log.read(0, now=3.0).num_keys == 2

    def test_retention_must_be_positive(self):
        with pytest.raises(ConfigError):
            UpdateLog(retention=0)


class TestUpdatePublisher:
    def test_last_write_wins_coalescing(self):
        log = UpdateLog()
        publisher = UpdatePublisher(log)
        ids = np.array([7], np.uint64)
        publisher.stage(0, ids, np.ones((1, DIM), np.float32))
        publisher.stage(0, [7], [[2.0] * DIM])  # lists stage alike
        publisher.publish(1, now=0.0)
        batch = log.read(0)
        np.testing.assert_array_equal(
            batch.deltas[0].vectors, np.full((1, DIM), 2.0, np.float32)
        )

    def test_publish_chunks_by_max_batch_keys(self):
        log = UpdateLog()
        publisher = UpdatePublisher(log, max_batch_keys=3)
        ids = np.arange(8, dtype=np.uint64)
        publisher.stage(0, ids, np.zeros((8, DIM), np.float32))
        offsets = publisher.publish(1)
        assert offsets == [0, 1, 2]
        assert [log.read(o).num_keys for o in offsets] == [3, 3, 2]
        with pytest.raises(ConfigError):
            UpdatePublisher(log, max_batch_keys=0)

    def test_coalesce_counter_identity(self):
        registry = MetricsRegistry()
        install_conservation_laws(registry)
        log = UpdateLog()
        publisher = UpdatePublisher(log)
        publisher.bind_observability(registry)
        ids = np.arange(4, dtype=np.uint64)
        publisher.stage(0, ids, np.zeros((4, DIM), np.float32))
        publisher.stage(0, ids[:2], np.ones((2, DIM), np.float32))
        publisher.publish(1)
        publisher.stage(1, ids[:3], np.ones((3, DIM), np.float32))
        # staged == published + coalesced + buffered, buffer as a gauge.
        assert registry.total("refresh.staged_keys") == 9
        assert registry.total("refresh.published_keys") == 4
        assert registry.total("refresh.coalesced_writes") == 2
        assert registry.audit() == []

    def test_drain_pulls_one_trainer_round(self):
        log = UpdateLog()
        publisher = UpdatePublisher(log)
        trainer = EmbeddingDeltaTrainer(
            [400, 400], [DIM, DIM], keys_per_round=16, seed=3
        )
        version = publisher.drain(trainer, now=1.0)
        assert version == 1
        assert log.latest_version() == 1
        assert log.total_keys > 0

    def test_stage_validates_shapes(self):
        publisher = UpdatePublisher(UpdateLog())
        with pytest.raises(RefreshError):
            publisher.stage(
                0, np.array([1], np.uint64), np.zeros((2, DIM), np.float32)
            )
        with pytest.raises(RefreshError, match="length mismatch"):
            TableDelta(0, np.array([1], np.uint64), np.zeros((2, DIM)))
        publisher.stage(
            0, np.array([1], np.uint64), np.zeros((1, DIM), np.float32)
        )
        with pytest.raises(RefreshError):
            publisher.stage(
                0, np.array([2], np.uint64), np.zeros((1, 8), np.float32)
            )


class TestUpdateSubscriber:
    def _stream(self, rounds=3, published_at=None):
        log = UpdateLog()
        for v in range(1, rounds + 1):
            at = float(v) if published_at is None else published_at[v - 1]
            log.append(
                v, delta(0, [v, v + 1, v + 2], version=v), published_at=at
            )
        return log

    def test_applies_stream_to_cache(self):
        cache = build_cache()
        fill(cache, 0, [1, 2, 3, 4, 5])
        log = self._stream(rounds=2)
        subscriber = UpdateSubscriber(log, cache)
        assert subscriber.catch_up(now=10.0) == 2
        assert subscriber.applied_offset == 1
        assert subscriber.applied_version == 2
        # The cache serves the version-2 rows for the keys both rounds hit.
        ids = np.array([2, 3], np.uint64)
        keys = cache.encode(0, ids)
        outcome = cache.index_lookup(keys)
        assert outcome.cache_hit.all()
        np.testing.assert_array_equal(
            cache.gather(outcome.locations),
            delta_vectors(0, ids, DIM, 2),
        )

    def test_batches_gate_on_publish_time(self):
        cache = build_cache()
        log = self._stream(rounds=2, published_at=[1.0, 5.0])
        subscriber = UpdateSubscriber(log, cache)
        assert subscriber.catch_up(now=2.0) == 1
        assert subscriber.pending_keys(2.0) == 0
        assert subscriber.pending_keys(5.0) == 3
        assert subscriber.catch_up(now=5.0) == 1

    def test_write_through_to_host_store(self):
        calls = []

        class FakeStore:
            def apply_update(self, table_id, feature_ids, vectors):
                calls.append((table_id, feature_ids.copy(), vectors.copy()))

        cache = build_cache()
        subscriber = UpdateSubscriber(
            self._stream(rounds=1), cache, host_store=FakeStore()
        )
        subscriber.catch_up(now=10.0)
        assert len(calls) == 1
        table_id, ids, vectors = calls[0]
        assert table_id == 0
        np.testing.assert_array_equal(ids, np.array([1, 2, 3], np.uint64))
        np.testing.assert_array_equal(vectors, delta_vectors(0, ids, DIM, 1))

    def test_lag_past_retention_fails_loudly(self):
        cache = build_cache()
        log = UpdateLog(retention=1)
        for v in range(1, 4):
            log.append(v, delta(0, [v], version=v))
        subscriber = UpdateSubscriber(log, cache)
        with pytest.raises(RefreshError, match="retention"):
            subscriber.next_batch(now=10.0)

    def test_allow_gap_resyncs_and_counts_dropped(self):
        registry = MetricsRegistry()
        install_conservation_laws(registry)
        cache = build_cache()
        log = UpdateLog(retention=1)
        for v in range(1, 4):
            log.append(v, delta(0, [v, v + 1], version=v))
        subscriber = UpdateSubscriber(log, cache, allow_gap=True)
        subscriber.bind_observability(registry)
        subscriber.catch_up(now=10.0)
        assert subscriber.applied_version == 3
        assert registry.total("refresh.dropped_keys") == 4
        assert registry.total("refresh.resyncs") == 1
        assert registry.total("refresh.applied_keys") == 2
        # carried + applied + dropped == keys through applied_offset.
        assert registry.audit() == []
        subscriber._dropped_keys += 1  # a miscount trips the hook
        assert registry.audit() == [
            "check 'refresh.stream-conservation' failed: carried(0) + "
            "applied(2) + dropped(5) = 7, log says 6 keys through offset 2"
        ]

    def test_outage_polls_counted_and_stream_resumes(self):
        registry = MetricsRegistry()
        schedule = FaultSchedule([UpdateLogOutage(start=0.0, duration=5.0)])
        log = UpdateLog(schedule=schedule)
        log.append(1, delta(0, [1]), published_at=0.0)
        cache = build_cache()
        subscriber = UpdateSubscriber(log, cache)
        subscriber.bind_observability(registry)
        assert subscriber.next_batch(now=1.0) is None
        assert registry.total("refresh.outage_polls") == 1
        assert subscriber.apply_next(now=6.0) is not None

    def test_gauges_track_stream_position(self):
        registry = MetricsRegistry()
        cache = build_cache()
        log = self._stream(rounds=3)
        subscriber = UpdateSubscriber(log, cache)
        subscriber.bind_observability(registry)
        subscriber.apply_next(now=10.0)
        subscriber.refresh_gauges(10.0)
        assert registry.gauge("refresh.version_lag") == 2.0
        assert registry.gauge("refresh.offset_lag") == 2.0
        assert registry.gauge("refresh.pending_keys") == 6.0
        assert registry.gauge("refresh.staleness_s") == 8.0
        assert registry.gauge("refresh.applied_version") == 1.0

    def test_snapshot_replay_converges_to_uninterrupted_replica(self):
        """The recovery guarantee, at unit scale: kill mid-stream, restore
        into a cold cache, replay — fingerprints match exactly."""
        log = self._stream(rounds=4)

        def replica():
            cache = build_cache()
            fill(cache, 0, range(1, 10))
            fill(cache, 1, range(5))
            return cache

        steady = replica()
        sub_a = UpdateSubscriber(log, steady)
        sub_a.catch_up(now=10.0)

        doomed = replica()
        sub_b = UpdateSubscriber(log, doomed)
        sub_b.catch_up(now=2.0)  # two of four rounds
        snap = sub_b.snapshot()
        assert snap.model_version == 2
        del doomed, sub_b

        cold = build_cache()
        sub_c = UpdateSubscriber.from_snapshot(snap, cold, log)
        assert sub_c.catch_up(now=10.0) == 2
        assert fingerprint(cold) == fingerprint(steady)
        assert sub_c.applied_version == sub_a.applied_version

    def test_restored_replica_audit_counts_carried_keys(self):
        registry = MetricsRegistry()
        log = self._stream(rounds=2)
        cache = build_cache()
        sub = UpdateSubscriber(log, cache)
        sub.catch_up(now=1.0)
        snap = sub.snapshot()

        cold = build_cache()
        restored = UpdateSubscriber.from_snapshot(snap, cold, log)
        restored.bind_observability(registry)
        restored.catch_up(now=10.0)
        assert registry.total("refresh.carried_keys") == 3
        assert registry.total("refresh.applied_keys") == 3
        assert registry.audit() == []


class TestHostStoreWriteThrough:
    def test_uncached_refreshed_key_is_served_at_its_new_version(self, hw):
        """What cluster replicas and the refresh benches wire up:
        ``host_store=layer.store`` over a plain embedding store."""
        from repro.core.workflow import FlecheEmbeddingLayer
        from repro.gpusim.executor import Executor
        from repro.tables.store import EmbeddingStore
        from repro.workloads.trace import TraceBatch

        specs = make_table_specs([400, 400], [DIM, DIM])
        layer = FlecheEmbeddingLayer(
            EmbeddingStore(specs, hw), FlecheConfig(cache_ratio=0.5), hw
        )
        log = UpdateLog()
        log.append(1, delta(0, [7], version=1), published_at=0.0)
        subscriber = UpdateSubscriber(log, layer.cache, host_store=layer.store)
        assert subscriber.catch_up(now=1.0) == 1

        ids = np.array([7], np.uint64)
        result = layer.query(
            TraceBatch([ids, np.array([1], np.uint64)], batch_size=1),
            Executor(hw),
        )
        np.testing.assert_array_equal(
            result.outputs[0], delta_vectors(0, ids, DIM, 1)
        )

    def test_write_before_the_snapshot_survives_crash_and_recover(self, hw):
        """The snapshot carries the host store's refreshed rows, so an
        uncached key written before it keeps its version even once the
        log has trimmed the offset that wrote it."""
        from repro.cluster import ClusterReplica
        from repro.gpusim.executor import Executor
        from repro.workloads.synthetic import uniform_tables_spec
        from repro.workloads.trace import TraceBatch

        dataset = uniform_tables_spec(
            num_tables=2, corpus_size=400, alpha=-1.2, dim=DIM
        )
        log = UpdateLog(retention=1)
        log.append(1, delta(0, [7], version=1), published_at=0.0)
        replica = ClusterReplica(0, dataset, hw)
        replica.attach_refresh(log, now=0.0)
        log.append(2, delta(0, [9], version=2), published_at=0.0)
        assert replica.subscriber.catch_up(now=0.0) == 1
        assert replica.take_snapshot().log_offset == 1
        assert fingerprint(replica.layer.cache) == {}
        log.append(3, delta(0, [11], version=3), published_at=0.5)
        assert log.first_offset == 2  # both pre-snapshot offsets trimmed
        replica.crash()
        assert replica.recover(now=1.0) == 1  # only the post-snapshot one

        ids = np.array([7, 9, 11], np.uint64)
        result = replica.layer.query(
            TraceBatch([ids, np.array([1, 2, 3], np.uint64)], batch_size=3),
            Executor(hw),
        )
        np.testing.assert_array_equal(result.outputs[0], np.vstack([
            delta_vectors(0, ids[i:i + 1], DIM, version)
            for i, version in enumerate((1, 2, 3))
        ]))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known gap: the tiered store writes through only to rows "
        "its DRAM tier holds, and its remote tier answers every fetch "
        "with the version-0 reference rows",
    )
    def test_tiered_store_serves_a_refreshed_key_held_by_no_tier(self, hw):
        from repro.core.workflow import FlecheEmbeddingLayer
        from repro.gpusim.executor import Executor
        from repro.multitier.hierarchy import TieredParameterStore
        from repro.workloads.trace import TraceBatch

        specs = make_table_specs([400, 400], [DIM, DIM])
        store = TieredParameterStore(specs, hw, dram_capacity=8)
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.5), hw)
        log = UpdateLog()
        log.append(1, delta(0, [7], version=1), published_at=0.0)
        subscriber = UpdateSubscriber(log, layer.cache, host_store=store)
        assert subscriber.catch_up(now=1.0) == 1

        ids = np.array([7], np.uint64)
        result = layer.query(
            TraceBatch([ids, np.array([1], np.uint64)], batch_size=1),
            Executor(hw),
        )
        np.testing.assert_array_equal(
            result.outputs[0], delta_vectors(0, ids, DIM, 1)
        )


class TestRefreshScheduler:
    def _setup(self, hw, num_keys=8, quantum=512):
        cache = build_cache()
        fill(cache, 0, range(num_keys))
        log = UpdateLog()
        log.append(1, delta(0, range(num_keys)), published_at=0.0)
        subscriber = UpdateSubscriber(log, cache)
        return cache, log, subscriber

    def test_idle_bounded_slot_too_small_applies_nothing(self, hw):
        _, _, subscriber = self._setup(hw)
        scheduler = RefreshScheduler(subscriber, hw, quantum_keys=512)
        end = scheduler.run_idle(0.0, 1e-12)
        assert end == 0.0
        assert scheduler.batches_applied == 0
        # A slot big enough takes the batch.
        scheduler.run_idle(0.0, 1.0)
        assert scheduler.batches_applied == 1
        assert scheduler.keys_applied == 8
        assert scheduler.busy_time > 0.0

    def test_quantum_bounds_keys_per_slot(self, hw):
        _, _, subscriber = self._setup(hw, num_keys=8)
        scheduler = RefreshScheduler(subscriber, hw, quantum_keys=4)
        scheduler.run_idle(0.0, 1.0)
        # The 8-key batch exceeds the 4-key quantum: nothing applies.
        assert scheduler.batches_applied == 0

    def test_slow_subscriber_fault_inflates_cost(self, hw):
        _, log, subscriber = self._setup(hw)
        schedule = FaultSchedule([
            SlowSubscriber(start=0.0, duration=10.0, factor=4.0)
        ])
        scheduler = RefreshScheduler(subscriber, hw, schedule=schedule)
        batch = log.read(0)
        assert scheduler.batch_cost(batch, now=1.0) == pytest.approx(
            4.0 * scheduler.batch_cost(batch, now=20.0)
        )

    def test_gauges_refreshed_even_when_idle(self, hw):
        registry = MetricsRegistry()
        _, _, subscriber = self._setup(hw)
        subscriber.bind_observability(registry)
        scheduler = RefreshScheduler(subscriber, hw, quantum_keys=4)
        scheduler.run_idle(5.0, 5.0)
        assert registry.gauge("refresh.version_lag") == 1.0

    def test_quantum_must_be_positive(self, hw):
        _, _, subscriber = self._setup(hw)
        with pytest.raises(ConfigError):
            RefreshScheduler(subscriber, hw, quantum_keys=0)


class TestServingIntegration:
    """Refresh wiring in the serving loop."""

    def _workload(self):
        from repro.serving.arrivals import PoissonArrivals
        from repro.workloads.synthetic import uniform_tables_spec

        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=4_000, alpha=-1.2, dim=16,
        )
        requests = PoissonArrivals(dataset, 100_000.0, seed=4).generate(400)
        return dataset, requests

    def _server(self, hw, dataset, depth=1, cls=None):
        from repro.core.workflow import FlecheEmbeddingLayer
        from repro.serving.batcher import BatchingPolicy
        from repro.serving.pipeline import PipelinedInferenceServer
        from repro.tables.store import EmbeddingStore

        cls = cls or PipelinedInferenceServer

        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=0.05), hw
        )
        server = cls(
            dataset, layer, hw, depth=depth,
            policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        )
        return server, layer

    def test_no_refresher_leaves_no_refresh_telemetry(self, hw):
        """Byte-identity guard: a server never given a refresher emits no
        refresh metrics and serves deterministically."""
        dataset, requests = self._workload()
        reports = []
        for _ in range(2):
            server, _ = self._server(hw, dataset)
            reports.append(server.serve(list(requests)))
            assert not _has_refresh_metrics(server)
        a, b = reports
        assert np.asarray(a.latencies).tobytes() == \
            np.asarray(b.latencies).tobytes()
        assert a.metrics.counters == b.metrics.counters

    def test_empty_stream_does_not_perturb_latencies(self, hw):
        """A wired-but-idle refresher (empty log) must not change a single
        request latency relative to the no-refresher run."""
        dataset, requests = self._workload()
        server_a, _ = self._server(hw, dataset)
        baseline = server_a.serve(list(requests))

        server_b, layer_b = self._server(hw, dataset)
        subscriber = UpdateSubscriber(UpdateLog(), layer_b.cache)
        subscriber.bind_observability(server_b.obs)
        server_b.refresher = RefreshScheduler(subscriber, hw)
        report = server_b.serve(list(requests))
        assert np.asarray(report.latencies).tobytes() == \
            np.asarray(baseline.latencies).tobytes()
        # ... though its staleness gauges are now visible.
        assert _has_refresh_metrics(server_b)

    def test_gauges_close_at_the_last_finish(self, hw):
        """A publication landing while the last batch is in service is
        past the run's last idle slot, yet the staleness gauges still
        see it: the loop closes them at the last finish."""
        from repro.serving.server import InferenceServer

        dataset, requests = self._workload()
        server_a, _ = self._server(hw, dataset)
        baseline = server_a.serve(list(requests))
        last_finish = baseline.arrival_times[-1] + baseline.latencies[-1]

        server, layer = self._server(hw, dataset, cls=InferenceServer)
        log = UpdateLog()
        log.append(1, delta(0, range(8)), published_at=last_finish - 1e-7)
        subscriber = UpdateSubscriber(log, layer.cache)
        subscriber.bind_observability(server.obs)
        server.refresher = RefreshScheduler(subscriber, hw)
        report = server.serve(list(requests))
        assert report.arrival_times[-1] + report.latencies[-1] == last_finish
        assert subscriber.applied_version == 0
        assert server.obs.gauge("refresh.version_lag") == 1.0

    def test_refresher_applies_during_serving_and_audits_clean(self, hw):
        dataset, requests = self._workload()
        server, layer = self._server(hw, dataset, depth=2)
        horizon = requests[-1].arrival_time
        log = UpdateLog()
        publisher = UpdatePublisher(log, max_batch_keys=256)
        publisher.bind_observability(server.obs)
        trainer = EmbeddingDeltaTrainer(
            [spec.corpus_size for spec in dataset.table_specs()],
            [spec.dim for spec in dataset.table_specs()],
            keys_per_round=32, seed=6,
        )
        for i in range(4):
            publisher.drain(trainer, now=horizon * (i + 1) / 5)
        subscriber = UpdateSubscriber(
            log, layer.cache, host_store=layer.store
        )
        subscriber.bind_observability(server.obs)
        server.refresher = RefreshScheduler(subscriber, hw, quantum_keys=256)
        report = server.serve(list(requests))
        assert report.metrics.total("refresh.applied_keys") > 0
        assert subscriber.applied_version == 4
        assert server.obs.audit() == []
