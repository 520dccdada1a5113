"""Unit tests for mixed-precision, frequency-aware cache entries.

Covers the tentpole end to end: config validation, tiered capacity
arithmetic, quantize-on-insert / dequantize-on-gather through the flat
cache, spill-under-pressure, on-hit retiering with conservation-counter
accounting, the fp32 host tiers beneath the cache, and the AUC-proxy
regression gate (int8 tail within epsilon).
"""

import sys

import numpy as np
import pytest

from repro.coding.size_aware import SizeAwareCodec
from repro.core.admission import FrequencyEstimator
from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.precision import (
    PrecisionConfig,
    TIER_CODES,
    quantize_rows,
    dequantize_rows,
    slot_payload_bytes,
)
from repro.errors import ConfigError, SimulationError
from repro.mempool.slab_pool import SlabMemoryPool
from repro.model.trainer import CollisionAucStudy, SyntheticCtrTask
from repro.multitier.dram_cache import DramCacheLayer
from repro.tables.embedding_table import (
    EmbeddingTable, reference_vectors,
)
from repro.tables.table_spec import TableSpec

from conftest import dram_pass

MIXED = PrecisionConfig(
    fp32_share=0.4, fp16_share=0.3, int8_share=0.3,
    eviction_policy="lfu",
)


def _cache(precision, ratio=0.5, corpus=1000, dim=16):
    specs = [TableSpec(table_id=0, corpus_size=corpus, dim=dim)]
    return FlatCache(
        specs, FlecheConfig(cache_ratio=ratio, precision=precision)
    )


class TestPrecisionConfig:
    def test_default_is_disabled_and_not_quantizing(self):
        # The default is the one-tier, all-fp32 cache.
        config = PrecisionConfig()
        assert (config.fp32_share, config.fp16_share, config.int8_share) \
            == (1.0, 0.0, 0.0)
        assert not config.quantizing
        assert not config.needs_estimator

    def test_pinned_fp32_not_quantizing(self):
        pinned = PrecisionConfig(
            fp32_share=1.0, fp16_share=0.0, int8_share=0.0,
        )
        assert not pinned.quantizing
        assert not pinned.needs_estimator
        assert pinned.tiers_in_use() == ("fp32",)

    def test_lfu_without_quantizing_still_needs_estimator(self):
        config = PrecisionConfig(eviction_policy="lfu")
        assert not config.quantizing
        assert config.needs_estimator

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            PrecisionConfig(fp32_share=0.5, fp16_share=0.5,
                            int8_share=0.5)
        with pytest.raises(ConfigError):
            PrecisionConfig(fp16_share=0.5)

    def test_fp32_share_required(self):
        with pytest.raises(ConfigError):
            PrecisionConfig(fp32_share=0.0, fp16_share=0.5,
                            int8_share=0.5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            PrecisionConfig(eviction_policy="mru")

    def test_payload_bytes(self):
        assert slot_payload_bytes(32, "fp32") == 128
        assert slot_payload_bytes(32, "fp16") == 64
        assert slot_payload_bytes(32, "int8") == 36


class TestTieredPool:
    def test_tiered_capacity_beats_fp32_at_matched_bytes(self):
        plain = _cache(PrecisionConfig())
        mixed = _cache(MIXED)
        assert mixed.pool.total_bytes <= plain.pool.total_bytes * 1.01
        assert (
            mixed.pool.capacity_of(16) > plain.pool.capacity_of(16) * 1.4
        )

    def test_one_tier_pool_keeps_born_metadata(self):
        cache = _cache(PrecisionConfig())
        keys = np.arange(4, dtype=np.uint64)
        cache.admit_and_insert(keys, np.zeros((4, 16), np.float32), dim=16)
        locs = cache.index_lookup(keys).locations
        pool = cache.pool
        np.testing.assert_array_equal(
            pool.born_of_locations(locs), [TIER_CODES["fp32"]] * 4
        )
        pool.set_born(locs[:2], TIER_CODES["int8"])
        np.testing.assert_array_equal(
            pool.born_of_locations(locs), [2, 2, 0, 0]
        )

    def test_allocate_stamps_the_class_tier(self):
        pool = SlabMemoryPool({(8, "fp32"): 4, (8, "int8"): 4})
        first = pool.allocate(8, 4, "int8")
        pool.set_born(first, TIER_CODES["fp32"])  # a demoted entry
        pool.release(first)
        again = pool.allocate(8, 4, "int8")
        assert (pool.born_of_locations(again) == TIER_CODES["int8"]).all()

    def test_pool_keys_are_dim_tier_pairs(self):
        with pytest.raises(SimulationError):
            SlabMemoryPool({16: 32})
        with pytest.raises(SimulationError):
            SlabMemoryPool({(16, "bf16"): 32})

    def test_write_read_roundtrip_per_tier(self):
        pool = SlabMemoryPool(
            {(8, "fp32"): 16, (8, "fp16"): 16, (8, "int8"): 16}
        )
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(6, 8)).astype(np.float32)
        for tier in ("fp32", "fp16", "int8"):
            locs = pool.allocate(8, 6, tier=tier)
            pool.write(locs, rows)
            back = pool.read(locs)
            payload, scales = quantize_rows(rows, tier)
            np.testing.assert_array_equal(
                back, dequantize_rows(payload, scales, tier)
            )
            assert (
                pool.tier_codes_of_locations(locs) == TIER_CODES[tier]
            ).all()

    def test_mixed_tier_gather_orders_rows(self):
        pool = SlabMemoryPool({(8, "fp32"): 16, (8, "fp16"): 16})
        rows = np.arange(16, dtype=np.float32).reshape(2, 8)
        a = pool.allocate(8, 1, tier="fp32")
        b = pool.allocate(8, 1, tier="fp16")
        pool.write(a, rows[:1])
        pool.write(b, rows[1:])
        both = np.concatenate([b, a])  # deliberately out of class order
        out = pool.read(both)
        np.testing.assert_array_equal(out[1], rows[0])
        np.testing.assert_allclose(out[0], rows[1], rtol=1e-3)


class TestTieredInsertAndGather:
    def test_hot_keys_land_fp32_tail_lands_cold(self):
        cache = _cache(MIXED)
        keys = np.arange(40, dtype=np.uint64)
        vecs = np.random.default_rng(0).normal(size=(40, 16)).astype(
            np.float32
        )
        for _ in range(10):
            cache.observe_keys(keys[:4])  # hot subset
        cache.observe_keys(keys)
        cache.admit_and_insert(keys, vecs, dim=16)
        outcome = cache.index_lookup(keys)
        assert outcome.cache_hit.all()
        codes = cache.pool.tier_codes_of_locations(outcome.locations)
        assert (codes[:4] == TIER_CODES["fp32"]).all()
        assert (codes[4:] > TIER_CODES["fp32"]).all()

    def test_gather_error_bounded_by_tier(self):
        cache = _cache(MIXED)
        keys = np.arange(30, dtype=np.uint64)
        vecs = np.random.default_rng(2).normal(size=(30, 16)).astype(
            np.float32
        )
        cache.observe_keys(keys)
        cache.admit_and_insert(keys, vecs, dim=16)
        outcome = cache.index_lookup(keys)
        got = cache.gather(outcome.locations[outcome.cache_hit])
        err = np.abs(got - vecs[outcome.cache_hit]).max(axis=1)
        # int8 per-row error <= max|row|/127 * 0.51
        bound = np.abs(vecs[outcome.cache_hit]).max(axis=1) / 127 * 0.51
        assert (err <= bound + 1e-6).all()

    def test_spill_keeps_overflow_cached_in_colder_tier(self):
        # Tiny cache: fp32 class can't hold every "hot" key; overflow
        # must still be cached (in a colder tier), not evicted.
        precision = PrecisionConfig(
            fp32_share=0.2, fp16_share=0.2, int8_share=0.6,
        )
        cache = _cache(precision, ratio=0.1)
        cache.admission.hot_min_count = cache.admission.warm_min_count = 1
        fp32_cap = cache.pool.capacity_of(16, "fp32")
        n = fp32_cap + 10
        keys = np.arange(n, dtype=np.uint64)
        vecs = np.zeros((n, 16), dtype=np.float32)
        for _ in range(3):
            cache.observe_keys(keys)  # everything "hot"
        inserted, _ = cache.admit_and_insert(keys, vecs, dim=16)
        assert inserted.all()
        outcome = cache.index_lookup(keys)
        assert outcome.cache_hit.all()
        codes = cache.pool.tier_codes_of_locations(outcome.locations)
        assert (codes == TIER_CODES["fp32"]).sum() == fp32_cap
        assert (codes != TIER_CODES["fp32"]).sum() == 10

    def test_zero_share_tier_clamps_hotter(self):
        precision = PrecisionConfig(
            fp32_share=0.5, fp16_share=0.0, int8_share=0.5,
        )
        cache = _cache(precision)
        # Desired codes include fp16 (1); the pool has no fp16 class.
        codes = cache._clamp[np.array([0, 1, 2], dtype=np.int8)]
        np.testing.assert_array_equal(codes, [0, 0, 2])

    def test_retier_promotes_on_frequency_crossing(self):
        cache = _cache(MIXED)
        keys = np.arange(20, dtype=np.uint64)
        vecs = np.random.default_rng(3).normal(size=(20, 16)).astype(
            np.float32
        )
        cache.observe_keys(keys)
        cache.admit_and_insert(keys, vecs, dim=16)
        out = cache.index_lookup(keys)
        before = cache.pool.tier_codes_of_locations(out.locations)
        assert (before > TIER_CODES["fp32"]).all()
        for _ in range(10):
            cache.observe_keys(keys)  # cross the hot threshold
        out = cache.index_lookup(keys)
        rows = cache.gather(out.locations)
        promoted, demoted = cache.retier_hits(
            keys, out.locations, rows, 16
        )
        assert promoted > 0 and demoted == 0
        out2 = cache.index_lookup(keys)
        after = cache.pool.tier_codes_of_locations(out2.locations)
        assert (after < before).any()
        # Step-weighted counters balance against live drift.
        cache._audit_pool()
        snap = cache.obs.snapshot()
        assert snap.total("precision.promotions") == (
            snap.gauge("precision.drift_up_live")
            + snap.total("precision.drift_up_retired")
        )

    def test_entry_split_gauges_match(self):
        cache = _cache(MIXED)
        keys = np.arange(25, dtype=np.uint64)
        vecs = np.zeros((25, 16), dtype=np.float32)
        cache.observe_keys(keys)
        cache.admit_and_insert(keys, vecs, dim=16)
        cache._audit_pool()
        snap = cache.obs.snapshot()
        split = (
            snap.gauge("precision.entries_fp32")
            + snap.gauge("precision.entries_fp16")
            + snap.gauge("precision.entries_int8")
        )
        assert split == snap.gauge("precision.cached_entries") == 25
        byte_sum = (
            snap.gauge("precision.bytes_fp32")
            + snap.gauge("precision.bytes_fp16")
            + snap.gauge("precision.bytes_int8")
        )
        assert 0 < byte_sum <= snap.gauge("precision.byte_budget")


class TestOneTierCache:
    def test_lfu_one_tier_cache_keeps_frequent_keys(self):
        """The default shares with LFU eviction build one fp32 class per
        dimension and a frequency estimator, and eviction reads it."""
        for policy in ("lfu", "lru"):
            cache = _cache(PrecisionConfig(eviction_policy=policy), ratio=0.05)
            assert not cache.quantizing
            assert list(cache.pool._class_by_key) == [(16, "fp32")]
            assert (cache._estimator is not None) == (policy == "lfu")
            capacity = cache.pool.capacity_of(16, "fp32")
            keys = cache.encode(0, np.arange(capacity + 8, dtype=np.uint64))
            vecs = np.zeros((len(keys), 16), dtype=np.float32)
            hot, rest, late = keys[:4], keys[4:capacity], keys[capacity:]
            for _ in range(10):
                cache.observe_keys(hot)
            cache.observe_keys(keys)
            cache.tick()
            cache.admit_and_insert(hot, vecs[:4], 16)  # oldest stamps
            cache.tick()
            cache.admit_and_insert(rest, vecs[4:capacity], 16)
            cache.tick()
            inserted, _ = cache.admit_and_insert(late, vecs[capacity:], 16)
            assert inserted.all()
            # LFU keeps the oldest, most frequent keys; LRU drops them.
            survivors = cache.contains_cached(hot)
            assert survivors.all() if policy == "lfu" else not survivors.any()


class TestLruEviction:
    def test_mixed_split_lru_eviction_estimates_no_frequency(
        self, monkeypatch
    ):
        """LRU orders victims by recency alone, so a mixed-split LRU
        cache's eviction never estimates its candidates' frequencies —
        and evicts, from its recency queue, the same victims as a cache
        that still scans and estimates."""
        callers = []
        estimate = FrequencyEstimator.estimate

        def counting(estimator, keys):
            callers.append(sys._getframe(1).f_code.co_name)
            return estimate(estimator, keys)

        monkeypatch.setattr(FrequencyEstimator, "estimate", counting)
        config = PrecisionConfig(
            fp32_share=0.4, fp16_share=0.3, int8_share=0.3,
        )
        assert config.eviction_policy == "lru"
        rng = np.random.default_rng(0)
        batches = [
            np.unique(rng.zipf(1.3, 40) % 1000).astype(np.uint64)
            for _ in range(30)
        ]
        lean, estimating = _cache(config, 0.05), _cache(config, 0.05)
        # What eviction did before: estimate, then ignore the counts.
        estimating._eviction_policy.reads_counts = True
        evict_estimates = []
        for cache in (lean, estimating):
            callers.clear()
            for ids in batches:
                keys = cache.encode(0, ids)
                cache.observe_keys(keys)
                cache.tick()
                missing = keys[~cache.contains_cached(keys)]
                vecs = np.zeros((len(missing), 16), dtype=np.float32)
                cache.admit_and_insert(missing, vecs, 16)
            evict_estimates.append(callers.count("_scan_victims"))
        assert evict_estimates[0] == 0 < evict_estimates[1]
        every = lean.encode(0, np.arange(1000, dtype=np.uint64))
        np.testing.assert_array_equal(
            lean.contains_cached(every), estimating.contains_cached(every)
        )
        assert lean.contains_cached(every).sum() < len(np.unique(
            np.concatenate(batches)
        ))


class TestDramTier:
    def test_fp32_layer_is_exact(self):
        specs = [TableSpec(table_id=0, corpus_size=500, dim=8)]
        layer = DramCacheLayer(specs, capacity=64)
        ids = np.arange(10, dtype=np.uint64)
        vectors, _, _ = dram_pass(layer, np.zeros(10, int), ids)
        np.testing.assert_array_equal(
            vectors, reference_vectors(0, ids, 8)
        )
        again, found, _ = dram_pass(layer, np.zeros(10, int), ids)
        assert len(found.hit_positions) == 10
        np.testing.assert_array_equal(again, vectors)


class TestTableTier:
    def test_fp32_table_bit_exact(self):
        spec = TableSpec(table_id=0, corpus_size=100, dim=8)
        table = EmbeddingTable(spec)
        ids = np.arange(10, dtype=np.uint64)
        np.testing.assert_array_equal(
            table.lookup(ids), reference_vectors(0, ids, 8)
        )


class TestAucProxyRegression:
    """Exp #5's collision/AUC machinery, reused as the quantization gate:
    int8-quantizing the *tail* tier's weights must not move held-out AUC
    by more than the pinned epsilon."""

    EPSILON = 0.01

    @pytest.fixture(scope="class")
    def task(self):
        return SyntheticCtrTask(
            corpus_sizes=[64, 256, 1024],
            num_train=12000, num_test=3000, alpha=-0.8, seed=3,
        )

    def test_int8_tail_within_epsilon(self, task):
        study = CollisionAucStudy(task, epochs=4)
        codec = SizeAwareCodec(list(task.corpus_sizes), key_bits=32)
        baseline = study.auc_with_codec(codec)

        # Frequency split over the training stream: top-decile keys are
        # "hot" (kept fp32), the rest are the int8 tail.
        keys = np.zeros(task.train_features.shape, dtype=np.uint64)
        for t in range(task.train_features.shape[1]):
            keys[:, t] = codec.encode(t, task.train_features[:, t])
        flat, counts = np.unique(keys, return_counts=True)
        hot_cut = np.quantile(counts, 0.9)
        hot = set(flat[counts >= hot_cut].tolist())

        def tail_int8(weight_keys, weights):
            mask = np.array(
                [int(k) not in hot for k in weight_keys], dtype=bool
            )
            out = weights.astype(np.float64).copy()
            tail = weights[mask].astype(np.float32)
            if len(tail):
                payload, scales = quantize_rows(tail[None, :], "int8")
                out[mask] = dequantize_rows(
                    payload, scales, "int8"
                )[0].astype(np.float64)
            return out

        quantized = study.auc_with_codec(codec, weight_transform=tail_int8)
        assert abs(baseline - quantized) <= self.EPSILON, (
            baseline, quantized
        )

    def test_identity_transform_is_noop(self, task):
        study = CollisionAucStudy(task, epochs=4)
        codec = SizeAwareCodec(list(task.corpus_sizes), key_bits=32)
        plain = study.auc_with_codec(codec)
        identity = study.auc_with_codec(
            codec, weight_transform=lambda keys, weights: weights
        )
        assert plain == pytest.approx(identity, abs=1e-12)
