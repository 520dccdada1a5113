"""Tests for cache snapshots and warm restarts."""

import numpy as np
import pytest

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.snapshot import restore, snapshot
from repro.errors import WorkloadError
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs


def build_cache(ratio=0.5, dims=(16, 16), corpora=(400, 400), **overrides):
    specs = make_table_specs(list(corpora), list(dims))
    return FlatCache(specs, FlecheConfig(cache_ratio=ratio, **overrides))


def fill(cache, table, ids, dim=16):
    features = np.asarray(ids, dtype=np.uint64)
    keys = cache.encode(table, features)
    vectors = reference_vectors(table, features, dim)
    cache.admit_and_insert(keys, vectors, dim)
    return keys, vectors


class TestSnapshot:
    def test_captures_all_cached_entries(self):
        cache = build_cache()
        cache.tick()
        fill(cache, 0, range(20))
        fill(cache, 1, range(10))
        snap = snapshot(cache)
        assert snap.num_entries == 30

    def test_excludes_dram_pointers(self):
        cache = build_cache(use_unified_index=True, unified_index_fraction=1.0)
        cache.set_unified_capacity(10)
        cache.tick()
        fill(cache, 0, range(5))
        keys = cache.encode(1, np.arange(5, dtype=np.uint64))
        cache.publish_dram_pointers(keys, np.arange(5, dtype=np.uint64))
        snap = snapshot(cache)
        assert snap.num_entries == 5  # pointers not persisted

    def test_stream_position_defaults(self):
        cache = build_cache()
        cache.tick()
        fill(cache, 0, [1])
        snap = snapshot(cache)
        assert snap.model_version == 0
        assert snap.log_offset == -1

    def test_stream_position_roundtrip(self):
        cache = build_cache()
        cache.tick()
        fill(cache, 0, [1])
        snap = snapshot(cache, model_version=7, log_offset=42)
        assert snap.model_version == 7
        assert snap.log_offset == 42


class TestRestore:
    def test_warm_restart_preserves_hits(self):
        cache = build_cache()
        cache.tick()
        keys, vectors = fill(cache, 0, range(30))
        snap = snapshot(cache)

        fresh = build_cache()
        restored = restore(fresh, snap)
        assert restored == 30
        outcome = fresh.index_lookup(keys)
        assert outcome.cache_hit.all()
        got = fresh.gather(outcome.locations)
        np.testing.assert_array_equal(got, vectors)

    def test_smaller_cache_keeps_hottest(self):
        cache = build_cache()
        cache.tick()
        fill(cache, 0, range(40))
        # Touch a subset so it is hotter than the rest.
        cache.tick()
        hot_ids = np.arange(5, dtype=np.uint64)
        cache.index_lookup(cache.encode(0, hot_ids))
        snap = snapshot(cache)

        tiny = build_cache(ratio=0.05)  # far fewer slots than 40
        restore(tiny, snap)
        outcome = tiny.index_lookup(tiny.encode(0, hot_ids))
        assert outcome.cache_hit.all()

    def test_key_width_mismatch_rejected(self):
        cache = build_cache()
        cache.tick()
        fill(cache, 0, [1])
        snap = snapshot(cache)
        other = build_cache(key_bits=32)
        with pytest.raises(WorkloadError):
            restore(other, snap)

    def test_missing_dimension_rejected(self):
        cache = build_cache(dims=(16, 16))
        cache.tick()
        fill(cache, 0, [1])
        snap = snapshot(cache)
        other = build_cache(dims=(32, 32))
        with pytest.raises(WorkloadError):
            restore(other, snap)

    def test_restore_into_nonempty_cache_merges(self):
        a = build_cache()
        a.tick()
        keys_a, _ = fill(a, 0, range(10))
        snap = snapshot(a)

        b = build_cache()
        b.tick()
        keys_b, _ = fill(b, 1, range(10))
        restore(b, snap)
        assert b.index_lookup(keys_a).cache_hit.all()
        assert b.index_lookup(keys_b).cache_hit.all()

    def test_end_to_end_layer_restart(self, hw, rng):
        """A restarted embedding layer starts warm from a snapshot."""
        from repro.core.workflow import FlecheEmbeddingLayer
        from repro.gpusim.executor import Executor
        from repro.tables.store import EmbeddingStore
        from repro.workloads.trace import TraceBatch

        specs = make_table_specs([2000, 2000], [16, 16])
        store = EmbeddingStore(specs, hw)
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.3), hw)
        batch = TraceBatch(
            [rng.integers(0, 2000, 128).astype(np.uint64) for _ in range(2)],
            batch_size=128,
        )
        layer.query(batch, Executor(hw))
        snap = snapshot(layer.cache)

        restarted = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=0.3), hw
        )
        restore(restarted.cache, snap)
        result = restarted.query(batch, Executor(hw))
        assert result.hit_rate > 0.95
