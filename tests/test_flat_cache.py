"""Tests for the flat cache data structure (paper §3.1)."""

import numpy as np
import pytest

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.errors import ConfigError
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs


def make_cache(ratio=0.2, dims=(16, 16), corpora=(500, 800), **overrides):
    specs = make_table_specs(list(corpora), list(dims))
    config = FlecheConfig(cache_ratio=ratio, **overrides)
    return FlatCache(specs, config), specs


class TestConstruction:
    def test_one_slab_class_per_dim(self):
        cache, _ = make_cache(dims=(16, 32), corpora=(100, 100))
        assert cache.pool.dims() == [16, 32]

    def test_needs_specs(self):
        with pytest.raises(ConfigError):
            FlatCache([], FlecheConfig())

    def test_capacity_respects_ratio(self):
        cache, specs = make_cache(ratio=0.1)
        total_ids = sum(s.corpus_size for s in specs)
        # Slightly under the raw ratio because index metadata is charged.
        assert cache.capacity_slots <= int(total_ids * 0.1)
        assert cache.capacity_slots >= int(total_ids * 0.1 * 0.55)

    def test_memory_usage_reports_pool_and_index(self):
        cache, _ = make_cache()
        usage = cache.memory_usage()
        assert usage["pool"] > 0
        assert usage["index"] > 0


class TestEncode:
    def test_tables_never_collide(self):
        cache, specs = make_cache()
        a = cache.encode(0, np.arange(100, dtype=np.uint64))
        b = cache.encode(1, np.arange(100, dtype=np.uint64))
        assert len(np.intersect1d(a, b)) == 0


class TestInsertLookupGather:
    def test_miss_then_hit(self):
        cache, specs = make_cache()
        cache.tick()
        keys = cache.encode(0, np.array([1, 2, 3], np.uint64))
        outcome = cache.index_lookup(keys)
        assert not outcome.cache_hit.any()

        vectors = reference_vectors(0, np.array([1, 2, 3], np.uint64), 16)
        inserted, _ = cache.admit_and_insert(keys, vectors, dim=16)
        assert inserted.all()

        outcome = cache.index_lookup(keys)
        assert outcome.cache_hit.all()
        got = cache.gather(outcome.locations)
        np.testing.assert_array_equal(got, vectors)

    def test_gather_returns_exact_vectors_after_churn(self, rng):
        cache, specs = make_cache(ratio=0.05, corpora=(2000, 2000))
        expected = {}
        for step in range(30):
            cache.tick()
            ids = rng.integers(0, 2000, size=64).astype(np.uint64)
            table = int(rng.integers(0, 2))
            keys = cache.encode(table, ids)
            outcome = cache.index_lookup(keys)
            if outcome.cache_hit.any():
                got = cache.gather(outcome.locations[outcome.cache_hit])
                expect = reference_vectors(
                    table, ids[outcome.cache_hit], 16
                )
                np.testing.assert_array_equal(got, expect)
            miss = outcome.miss
            vectors = reference_vectors(table, ids[miss], 16)
            cache.admit_and_insert(keys[miss], vectors, dim=16)

    def test_admission_zero_pointless_but_partial_works(self):
        cache, _ = make_cache(admission_probability=0.5, seed=42)
        cache.tick()
        keys = cache.encode(0, np.arange(400, dtype=np.uint64))
        vectors = np.zeros((400, 16), np.float32)
        inserted, _ = cache.admit_and_insert(keys, vectors, dim=16)
        assert 0 < inserted.sum() < 400


class TestEviction:
    def test_pool_never_overflows(self, rng):
        cache, _ = make_cache(ratio=0.02, corpora=(5000, 5000))
        for step in range(20):
            cache.tick()
            ids = rng.integers(0, 5000, size=256).astype(np.uint64)
            keys = cache.encode(0, ids)
            outcome = cache.index_lookup(keys)
            miss = outcome.miss
            unique_missing = np.unique(keys[miss])
            vectors = np.zeros((len(unique_missing), 16), np.float32)
            cache.admit_and_insert(unique_missing, vectors, dim=16)
            assert cache.pool.utilization <= 1.0

    def test_eviction_prefers_cold_keys(self):
        cache, _ = make_cache(ratio=0.02, corpora=(4000, 4000),
                              use_unified_index=False)
        dim_cap = cache.pool.capacity_of(16)
        cache.tick()
        hot = cache.encode(0, np.arange(10, dtype=np.uint64))
        cache.admit_and_insert(hot, np.ones((10, 16), np.float32), dim=16)
        # Keep hot keys warm while flooding the cache with cold keys.
        for step in range(10):
            cache.tick()
            cache.index_lookup(hot)
            cold_ids = np.arange(
                10 + step * dim_cap // 4, 10 + (step + 1) * dim_cap // 4,
                dtype=np.uint64,
            ) % 4000
            cold = cache.encode(0, cold_ids)
            cache.admit_and_insert(
                cold, np.zeros((len(cold), 16), np.float32), dim=16
            )
        outcome = cache.index_lookup(hot)
        assert outcome.cache_hit.mean() > 0.5


class TestUnifiedIndexIntegration:
    def test_publish_and_lookup_dram_pointer(self):
        cache, _ = make_cache(use_unified_index=True, unified_index_fraction=1.0)
        cache.set_unified_capacity(50)
        cache.tick()
        keys = cache.encode(0, np.array([9, 10], np.uint64))
        published = cache.publish_dram_pointers(keys, np.array([9, 10], np.uint64))
        assert published == 2
        outcome = cache.index_lookup(keys)
        assert outcome.dram_hit.all()
        assert not outcome.cache_hit.any()
        assert outcome.miss.all()  # still a data miss

    def test_budget_bounds_publication(self):
        cache, _ = make_cache(use_unified_index=True)
        cache.set_unified_capacity(3)
        cache.tick()
        keys = cache.encode(0, np.arange(10, dtype=np.uint64))
        assert cache.publish_dram_pointers(keys, np.arange(10, dtype=np.uint64)) == 3

    def test_clear_unified_index(self):
        cache, _ = make_cache(use_unified_index=True)
        cache.set_unified_capacity(10)
        cache.tick()
        keys = cache.encode(0, np.arange(5, dtype=np.uint64))
        cache.publish_dram_pointers(keys, np.arange(5, dtype=np.uint64))
        removed = cache.clear_unified_index()
        assert removed == 5
        assert cache.unified_entries == 0
        assert not cache.index_lookup(keys).dram_hit.any()

    def test_promotion_overwrites_pointer(self):
        cache, _ = make_cache(use_unified_index=True)
        cache.set_unified_capacity(10)
        cache.tick()
        keys = cache.encode(0, np.array([4], np.uint64))
        cache.publish_dram_pointers(keys, np.array([4], np.uint64))
        vectors = reference_vectors(0, np.array([4], np.uint64), 16)
        cache.admit_and_insert(
            keys, vectors, dim=16,
            dram_mask=np.array([True]),
        )
        outcome = cache.index_lookup(keys)
        assert outcome.cache_hit.all()
        assert cache.unified_entries == 0

    def test_grow_demotes_cold_entries(self):
        cache, _ = make_cache(use_unified_index=True, unified_index_fraction=1.0)
        cache.tick()
        keys = cache.encode(0, np.arange(20, dtype=np.uint64))
        cache.admit_and_insert(keys, np.zeros((20, 16), np.float32), dim=16)
        # Entries only become demotion candidates once they have gone cold
        # for a couple of batches.
        cache.tick()
        cache.tick()
        cache.set_unified_capacity(8)
        assert cache.unified_entries == 8
        outcome = cache.index_lookup(keys)
        assert int(outcome.dram_hit.sum()) == 8
        assert int(outcome.cache_hit.sum()) == 12


class TestClock:
    def test_tick_advances_and_collects(self):
        cache, _ = make_cache()
        e0 = cache.reclaimer._epoch
        cache.tick()
        assert cache.reclaimer._epoch > e0
