"""Tests for the giant-model three-tier hierarchy (paper §5)."""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.core.config import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, WorkloadError
from repro.gpusim.executor import Executor
from repro.multitier import remote_ps
from repro.multitier.dram_cache import DramCacheLayer
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.tables.embedding_table import reference_vectors
from repro.tables.store import pack_global_key
from repro.tables.table_spec import make_table_specs
from repro.workloads.trace import TraceBatch

from conftest import dram_pass, dram_resident, query_table


@pytest.fixture()
def specs():
    return make_table_specs([800, 1200], [16, 16])


class TestRemoteParameterServer:
    def test_fetch_returns_ground_truth(self, specs):
        ps = RemoteParameterServer(specs)
        ids = np.array([3, 7], np.uint64)
        result = ps.fetch(1, ids, 0.0)
        np.testing.assert_array_equal(
            result.vectors, reference_vectors(1, ids, 16)
        )

    def test_network_cost_has_rtt_floor(self, specs):
        ps = RemoteParameterServer(specs)
        result = ps.fetch(0, np.array([1], np.uint64), 0.0)
        assert result.network_time >= remote_ps.ROUND_TRIP

    def test_payload_scales_cost(self, specs):
        ps = RemoteParameterServer(specs)
        small = ps.fetch(0, np.arange(2, dtype=np.uint64), 0.0).network_time
        large = ps.fetch(0, np.arange(500, dtype=np.uint64), 0.0).network_time
        assert large > small

    def test_sharding_divides_streaming(self, specs, monkeypatch):
        ids = np.arange(700, dtype=np.uint64)

        def fetch_time(num_shards):
            monkeypatch.setattr(remote_ps, "NUM_SHARDS", num_shards)
            return RemoteParameterServer(specs).fetch(0, ids, 0.0).network_time

        assert fetch_time(4) < fetch_time(1)

    def test_out_of_corpus_rejected(self, specs):
        ps = RemoteParameterServer(specs)
        with pytest.raises(WorkloadError):
            ps.fetch(0, np.array([800], np.uint64), 0.0)

    def test_fetch_is_timeline_plus_reference_rows(self, specs):
        ps = RemoteParameterServer(specs)
        ids = np.arange(5, dtype=np.uint64)
        result = ps.fetch(1, ids, 0.0)
        assert result.network_time == ps.timeline(1, 5, 0.0).elapsed
        np.testing.assert_array_equal(
            result.vectors, reference_vectors(1, ids, 16)
        )


class TestDramCacheLayer:
    def test_miss_then_hit(self, specs):
        cache = DramCacheLayer(specs, capacity=100)
        ids = np.array([1, 2], np.uint64)
        v1, first, fetches = dram_pass(cache, [0, 0], ids)
        assert fetches == [(0, [pack_global_key(0, 1), pack_global_key(0, 2)])]
        v2, second, fetches = dram_pass(cache, [0, 0], ids)
        assert fetches == []
        np.testing.assert_array_equal(v1, v2)
        assert len(first.miss_positions) == 2 and not first.hit_positions
        assert len(second.hit_positions) == 2 and not second.miss_positions

    def test_returns_ground_truth(self, specs):
        cache = DramCacheLayer(specs, capacity=100)
        ids = np.array([5, 5, 9], np.uint64)
        for _ in range(2):  # misses, then hits
            vectors, _, _ = dram_pass(cache, [1, 1, 1], ids)
            np.testing.assert_array_equal(
                vectors, reference_vectors(1, ids, 16)
            )

    def test_lru_eviction_with_notification(self, specs):
        # The pass's notice and a flush's return carry the evicted keys
        # in eviction (LRU) order.
        cache = DramCacheLayer(specs, capacity=3)
        ids = np.array([1, 2, 3], np.uint64)
        assert dram_pass(cache, [0, 0, 0], ids)[1].evicted == []
        _, found, _ = dram_pass(cache, [0], np.array([4], np.uint64))
        assert found.evicted == [pack_global_key(0, 1)]
        assert not dram_resident(cache, 0, 1)
        assert dram_resident(cache, 0, 4)
        assert cache.flush() == [pack_global_key(0, k) for k in (2, 3, 4)]
        assert cache.flush() == []

    def test_touch_refreshes_lru(self, specs):
        cache = DramCacheLayer(specs, capacity=2)
        dram_pass(cache, [0], np.array([1], np.uint64))
        dram_pass(cache, [0], np.array([2], np.uint64))
        dram_pass(cache, [0], np.array([1], np.uint64))  # refresh 1
        dram_pass(cache, [0], np.array([3], np.uint64))  # evicts 2
        assert dram_resident(cache, 0, 1)
        assert not dram_resident(cache, 0, 2)

    def test_uncacheable_misses_are_served_not_inserted(self, specs):
        cache = DramCacheLayer(specs, capacity=8)
        ids = np.array([1, 2], np.uint64)
        vectors, _, _ = dram_pass(
            cache, [0, 1], ids, cacheable=lambda table: table == 1
        )
        np.testing.assert_array_equal(
            vectors[1], reference_vectors(1, ids[1:], 16)[0]
        )
        assert not dram_resident(cache, 0, 1)
        assert dram_resident(cache, 1, 2)

    def test_capacity_validation(self, specs):
        with pytest.raises(ConfigError):
            DramCacheLayer(specs, capacity=0)


class TestTieredParameterStore:
    def test_query_matches_ground_truth(self, specs, hw):
        store = TieredParameterStore(specs, hw, dram_capacity=500)
        ids = np.array([10, 20, 10], np.uint64)
        result = query_table(store, 0, ids)
        np.testing.assert_array_equal(
            result.vectors, reference_vectors(0, ids, 16)
        )

    def test_remote_cost_appears_only_on_dram_miss(self, specs, hw):
        store = TieredParameterStore(specs, hw, dram_capacity=500)
        ids = np.array([1, 2, 3], np.uint64)
        cold = query_table(store, 0, ids)
        warm = query_table(store, 0, ids)
        assert cold.cost.copy_time > warm.cost.copy_time
        assert store.obs.total("tier.dram_hits") > 0

    def test_query_many(self, specs, hw):
        store = TieredParameterStore(specs, hw, dram_capacity=500)
        tables = np.array([0, 1, 0])
        features = np.array([1, 2, 3], np.uint64)
        result = store.query_many(tables, features)
        assert result.vectors.shape == (3, 16)

    def test_eviction_invalidates_unified_pointers(self, specs, hw):
        """§5's corner case end to end: DRAM eviction erases the GPU-side
        pointer so it can never be trusted while dangling."""
        store = TieredParameterStore(specs, hw, dram_capacity=4)
        layer = FlecheEmbeddingLayer(
            store,
            FlecheConfig(cache_ratio=0.05, unified_index_fraction=1.0),
            hw,
        )
        layer.tuner = None
        layer.cache.set_unified_capacity(50)
        # Plant a unified pointer for (table 0, id 1).
        layer.cache.tick()
        flat = layer.cache.encode(0, np.array([1], np.uint64))
        layer.cache.publish_dram_pointers(flat, np.array([1], np.uint64))
        assert layer.cache.unified_entries == 1
        # Fill the DRAM tier with (table 0, id 1) then flood it out.
        query_table(store, 0, np.array([1], np.uint64))
        query_table(store, 0, np.array([2, 3, 4, 5, 6], np.uint64))
        assert not dram_resident(store.dram, 0, 1)
        # The dangling pointer is gone from the flat cache's index.
        outcome = layer.cache.index_lookup(flat)
        assert not outcome.dram_hit.any()
        assert layer.cache.unified_entries == 0
        assert store.obs.total("tier.pointer_invalidations") > 0

    def test_dram_fault_invalidates_pointers_exactly_once(self, specs, hw):
        """A DRAM-tier failure window drops every resident entry; the
        registered GPU unified-index invalidator fires exactly once per
        key, and caching resumes once the window closes."""
        from collections import Counter

        from repro.faults import DramTierFailure, FaultInjector, FaultSchedule

        schedule = FaultSchedule([DramTierFailure(start=1.0, duration=1.0)])
        remote = RemoteParameterServer(
            specs, injector=FaultInjector(schedule, seed=0)
        )
        store = TieredParameterStore(
            specs, hw, dram_capacity=64, remote=remote
        )
        fired = Counter()
        store.register_pointer_invalidator(
            lambda keys: fired.update(keys.tolist())
        )
        ids = np.array([1, 2, 3], np.uint64)
        query_table(store, 0, ids)  # healthy: populates the DRAM tier
        assert dram_resident(store.dram, 0, 1)

        store.advance_to(1.2)  # inside the failure window
        result = query_table(store, 0, ids)
        np.testing.assert_array_equal(
            result.vectors, reference_vectors(0, ids, 16)
        )
        expected = {pack_global_key(0, int(i)) for i in ids}
        assert set(fired) == expected
        assert all(count == 1 for count in fired.values())
        assert not dram_resident(store.dram, 0, 1)

        # Still down: queries bypass DRAM and fire nothing new.
        query_table(store, 0, np.array([4], np.uint64))
        assert all(count == 1 for count in fired.values())
        assert store.obs.total("tier.dram_bypass_queries") == 2

        store.advance_to(2.5)  # window closed: caching resumes
        query_table(store, 0, ids)
        assert dram_resident(store.dram, 0, 1)
        assert all(count == 1 for count in fired.values())

    def test_query_many_forwards_evictions_once_per_batch(self, specs, hw):
        """Evictions raised by each table of one ``query_many`` reach the
        invalidator as a single notice, in eviction order, every key
        exactly once — the same keys one ``query_many`` call per table
        forwards one notice at a time."""
        batched = TieredParameterStore(specs, hw, dram_capacity=6)
        per_table = TieredParameterStore(specs, hw, dram_capacity=6)
        batched_notices, single_notices = [], []
        batched.register_pointer_invalidator(
            lambda keys: batched_notices.append(keys.tolist())
        )
        per_table.register_pointer_invalidator(
            lambda keys: single_notices.append(keys.tolist())
        )
        table_ids = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        for base in (0, 10, 20):
            ids = np.arange(base, base + 8, dtype=np.uint64)
            batched.query_many(table_ids, ids)
            for table in (0, 1):
                query_table(per_table, table, ids[table_ids == table])
        # Batch 1 fills the tier past capacity inside its second table;
        # batches 2 and 3 evict in both tables.
        assert len(single_notices) == 5 and len(batched_notices) == 3
        flat = [k for notice in batched_notices for k in notice]
        assert flat == [k for notice in single_notices for k in notice]
        assert len(set(flat)) == len(flat)
        assert batched.obs.total("tier.pointer_invalidations") == len(flat)

    def test_query_many_with_a_dram_flush_invalidates_exactly_once(
        self, specs, hw
    ):
        """A batch whose time falls in a failure window flushes the tier
        before its lookups (``_now`` is fixed for the call); the flush is
        the batch's one notice, and the bypassed batch adds none."""
        from repro.faults import DramTierFailure, FaultInjector, FaultSchedule

        schedule = FaultSchedule([DramTierFailure(start=1.0, duration=1.0)])
        store = TieredParameterStore(
            specs, hw, dram_capacity=64,
            remote=RemoteParameterServer(
                specs, injector=FaultInjector(schedule, seed=0)
            ),
        )
        notices = []
        store.register_pointer_invalidator(
            lambda keys: notices.append(keys.tolist())
        )
        table_ids = np.array([0, 1, 0, 1])
        ids = np.array([1, 2, 3, 4], np.uint64)
        store.query_many(table_ids, ids)  # healthy: populates the tier
        assert notices == []

        store.advance_to(1.2)  # inside the failure window
        result = store.query_many(table_ids, ids)
        for table in (0, 1):
            mask = table_ids == table
            np.testing.assert_array_equal(
                result.vectors[mask], reference_vectors(table, ids[mask], 16)
            )
        assert len(notices) == 1
        assert sorted(notices[0]) == sorted(
            pack_global_key(int(t), int(i)) for t, i in zip(table_ids, ids)
        )
        store.query_many(table_ids, ids)  # still down: nothing new fires
        assert len(notices) == 1
        assert store.obs.total("tier.pointer_invalidations") == 4

    def test_a_dropped_layer_is_freed_and_no_longer_invalidated(
        self, specs, hw, monkeypatch
    ):
        """The store holds a layer's invalidator weakly: two layers share
        one tiered store, the first is dropped, and a DRAM eviction
        reaches only the live layer's cache."""
        from repro.core.flat_cache import FlatCache

        calls = []
        invalidate = FlatCache.invalidate_dram_pointers

        def recording(cache, flat_keys):
            calls.append(cache)
            return invalidate(cache, flat_keys)

        monkeypatch.setattr(FlatCache, "invalidate_dram_pointers", recording)
        store = TieredParameterStore(specs, hw, dram_capacity=8)
        dropped = FlecheEmbeddingLayer(store, FlecheConfig(), hw)
        live = FlecheEmbeddingLayer(store, FlecheConfig(), hw)
        gone = weakref.ref(dropped)
        gc.disable()  # freed by reference count, not by a collection
        try:
            del dropped
            assert gone() is None
        finally:
            gc.enable()
        query_table(store, 0, np.arange(12, dtype=np.uint64))
        assert store.obs.total("tier.pointer_invalidations") == 4
        assert calls == [live.cache]
        # A deep copy's store invalidates the copy's cache.
        calls.clear()
        clone = copy.deepcopy(live)
        query_table(clone.store, 0, np.arange(12, 24, dtype=np.uint64))
        assert calls == [clone.cache]

    def test_full_inference_through_tiers(self, specs, hw, rng):
        """Fleche runs unchanged on the tiered store (§5's claim)."""
        store = TieredParameterStore(specs, hw, dram_capacity=400)
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.1), hw)
        for _ in range(4):
            ids = [
                rng.integers(0, s.corpus_size, 32).astype(np.uint64)
                for s in specs
            ]
            batch = TraceBatch(ids_per_table=ids, batch_size=32)
            result = layer.query(batch, Executor(hw))
            for t, table_ids in enumerate(batch.ids_per_table):
                np.testing.assert_array_equal(
                    result.outputs[t],
                    reference_vectors(t, table_ids, 16),
                )
