"""Tests for the online retune surface (pool + cache knobs).

The adaptive controller's levers: retiring/growing slab capacity,
moving byte share between precision tiers, and the runtime setters on
``FlatCache`` — all with live entries untouched and validation intact.
"""

import copy

import pytest

from repro import FlecheConfig, default_platform
from repro.core.precision import PrecisionConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, SimulationError
from repro.mempool.slab_pool import SlabMemoryPool
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


@pytest.fixture()
def pool():
    return SlabMemoryPool({(16, "fp32"): 64, (16, "int8"): 256})


def _layer(quantizing=True, ratio=0.05):
    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=3, corpus_size=2_000, alpha=-1.2, dim=16,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    precision = PrecisionConfig(
        fp32_share=0.25, fp16_share=0.25, int8_share=0.5
    ) if quantizing else PrecisionConfig()
    return FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=ratio, precision=precision), hw,
    )


class TestPoolRetire:
    def test_retire_free_shrinks_capacity(self, pool):
        before_bytes = pool.total_bytes
        assert pool.retire_free(16, "int8", 100) == 100
        assert pool.capacity_of(16, "int8") == 156
        assert pool.free_of(16, "int8") == 156
        assert pool.total_bytes < before_bytes

    def test_retire_bounded_by_free_list(self, pool):
        taken = pool.allocate(16, 200, "int8")
        assert pool.retire_free(16, "int8", 500) == 56
        assert pool.capacity_of(16, "int8") == 200
        pool.release(taken)
        assert pool.free_of(16, "int8") == 200

    def test_retire_zero_or_negative_is_noop(self, pool):
        assert pool.retire_free(16, "int8", 0) == 0
        assert pool.retire_free(16, "int8", -3) == 0
        assert pool.capacity_of(16, "int8") == 256

    def test_retire_unknown_class_raises(self, pool):
        with pytest.raises(SimulationError):
            pool.retire_free(16, "fp16", 1)

    def test_live_slots_survive_retire(self, pool):
        locs = pool.allocate(16, 10, "int8")
        rows = pool.read(locs)
        pool.retire_free(16, "int8", 200)
        assert (pool.read(locs) == rows).all()


class TestPoolGrow:
    def test_grow_appends_fresh_slots(self, pool):
        before = pool.capacity_of(16, "fp32")
        assert pool.grow_class(16, "fp32", 32) == 32
        assert pool.capacity_of(16, "fp32") == before + 32
        assert pool.free_of(16, "fp32") == before + 32

    def test_grow_zero_is_noop(self, pool):
        assert pool.grow_class(16, "fp32", 0) == 0

    def test_grown_slots_usable(self, pool):
        pool.allocate(16, 64, "fp32")
        assert pool.free_of(16, "fp32") == 0
        pool.grow_class(16, "fp32", 8)
        locs = pool.allocate(16, 8, "fp32")
        assert len(locs) == 8

    def test_grow_int8_extends_scales(self, pool):
        pool.grow_class(16, "int8", 16)
        locs = pool.allocate(16, 272, "int8")
        assert len(locs) == 272

    def test_deepcopy_after_retune(self, pool):
        pool.retire_free(16, "int8", 100)
        pool.grow_class(16, "fp32", 8)
        clone = copy.deepcopy(pool)
        assert clone.capacity_of(16, "int8") == 156
        assert clone.capacity_of(16, "fp32") == 72
        assert clone.total_bytes == pool.total_bytes


class TestCacheKnobs:
    def test_set_admission_probability(self):
        cache = _layer().cache
        cache.set_admission_probability(0.4)
        assert cache.admission.probability == 0.4
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                cache.set_admission_probability(bad)

    def test_set_tier_thresholds(self):
        cache = _layer().cache
        cache.set_tier_thresholds(4, 2)
        assert cache.admission.hot_min_count == 4
        assert cache.admission.warm_min_count == 2
        with pytest.raises(ConfigError):
            cache.set_tier_thresholds(1, 2)   # warm > hot
        with pytest.raises(ConfigError):
            cache.set_tier_thresholds(2, 0)

    def test_thresholds_need_quantizing_cache(self):
        cache = _layer(quantizing=False).cache
        with pytest.raises(ConfigError):
            cache.set_tier_thresholds(2, 1)

    def test_set_evict_low_watermark(self):
        cache = _layer().cache
        cache.set_evict_low_watermark(0.5)
        assert cache.evict_low_watermark == 0.5
        with pytest.raises(ConfigError):
            cache.set_evict_low_watermark(0.0)
        with pytest.raises(ConfigError):
            cache.set_evict_low_watermark(
                cache.config.evict_high_watermark
            )

    def test_transfer_tier_capacity_moves_bytes(self):
        cache = _layer().cache
        pool = cache.pool
        dim = pool.dims()[0]
        before_bytes = pool.total_bytes
        before_fp32 = pool.capacity_of(dim, "fp32")
        before_int8 = pool.capacity_of(dim, "int8")
        retired, grown = cache.transfer_tier_capacity(
            dim, "int8", "fp32", 0.10,
        )
        assert retired > 0 and grown > 0
        assert pool.capacity_of(dim, "int8") == before_int8 - retired
        assert pool.capacity_of(dim, "fp32") == before_fp32 + grown
        # Integer floor on the byte conversion: never grows the budget.
        assert pool.total_bytes <= before_bytes

    def test_transfer_validation(self):
        cache = _layer().cache
        dim = cache.pool.dims()[0]
        with pytest.raises(ConfigError):
            cache.transfer_tier_capacity(dim, "int8", "int8", 0.1)
        with pytest.raises(ConfigError):
            cache.transfer_tier_capacity(dim, "int8", "fp32", 0.0)
        with pytest.raises(ConfigError):
            cache.transfer_tier_capacity(dim, "int8", "fp32", 1.5)
        with pytest.raises(ConfigError):
            cache.transfer_tier_capacity(dim, "bad", "fp32", 0.1)

    def test_transfer_needs_quantizing_cache(self):
        cache = _layer(quantizing=False).cache
        dim = cache.pool.dims()[0]
        with pytest.raises(ConfigError):
            cache.transfer_tier_capacity(dim, "int8", "fp32", 0.1)
