"""Tests for the HugeCTR-style per-table baseline."""

import numpy as np
import pytest

from repro.baselines.per_table_cache import (
    PerTableCacheLayer,
    PerTableConfig,
    _TableCache,
)
from repro.gpusim.executor import Executor
from repro.serving.arrivals import PoissonArrivals
from repro.serving.server import InferenceServer
from repro.tables.embedding_table import reference_vectors
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec
from repro.workloads.trace import TraceBatch


class TestTableCache:
    def test_miss_then_hit(self, rng):
        cache = _TableCache(capacity=100, dim=8, load_factor=1.0)
        ids = np.array([1, 2, 3], np.uint64)
        found, _, _ = cache.lookup(ids, stamp=1)
        assert not found.any()
        vectors = rng.standard_normal((3, 8)).astype(np.float32)
        cache.insert(ids, vectors, stamp=1)
        found, got, _ = cache.lookup(ids, stamp=2)
        assert found.all()
        np.testing.assert_array_equal(got, vectors)

    def test_capacity_is_bounded(self, rng):
        cache = _TableCache(capacity=32, dim=4, load_factor=1.0)
        ids = np.arange(1000, dtype=np.uint64)
        cache.insert(ids, np.zeros((1000, 4), np.float32), stamp=1)
        assert len(cache.index) <= cache.index.slots

    def test_lru_within_sets(self, rng):
        cache = _TableCache(capacity=16, dim=4, load_factor=1.0)
        hot = np.array([0], np.uint64)
        cache.insert(hot, np.ones((1, 4), np.float32), stamp=0)
        for step in range(1, 40):
            cache.lookup(hot, stamp=step)  # keep hot warm
            cold = np.array([step * 7 + 100], np.uint64)
            cache.insert(cold, np.zeros((1, 4), np.float32), stamp=step)
        found, _, _ = cache.lookup(hot, stamp=99)
        assert found[0]


class TestPerTableCacheLayer:
    def _batch(self, store, rng, n=32):
        ids = [
            rng.integers(0, spec.corpus_size, size=n).astype(np.uint64)
            for spec in store.specs
        ]
        return TraceBatch(ids_per_table=ids, batch_size=n)

    def test_outputs_match_ground_truth(self, small_store, hw, rng):
        layer = PerTableCacheLayer(small_store, PerTableConfig(0.1), hw)
        for _ in range(3):
            batch = self._batch(small_store, rng)
            result = layer.query(batch, Executor(hw))
            for t, ids in enumerate(batch.ids_per_table):
                expect = reference_vectors(t, ids, small_store.specs[t].dim)
                np.testing.assert_array_equal(result.outputs[t], expect)

    def test_hit_rate_rises_after_warmup(self, small_store, hw, rng):
        layer = PerTableCacheLayer(small_store, PerTableConfig(0.3), hw)
        first = layer.query(self._batch(small_store, rng), Executor(hw))
        for _ in range(8):
            last = layer.query(self._batch(small_store, rng), Executor(hw))
        assert last.hit_rate > first.hit_rate

    def test_one_query_kernel_per_table(self, small_store, hw, rng):
        layer = PerTableCacheLayer(small_store, PerTableConfig(0.1), hw)
        executor = Executor(hw)
        layer.query(self._batch(small_store, rng), executor)
        n = small_store.num_tables
        query_kernels = sum(
            count for name, count in executor.stats.counters.items()
            if name.startswith("kernel:ptc_query_")
        )
        assert query_kernels == n

    def test_maintenance_grows_with_table_count(self, hw, rng):
        """Issue 2 (Figure 4): maintenance ~ table count at fixed work."""
        from repro.tables.store import EmbeddingStore
        from repro.tables.table_spec import make_table_specs

        def run(num_tables, ids_total=2048):
            specs = make_table_specs([2000] * num_tables, [16] * num_tables)
            store = EmbeddingStore(specs, hw)
            layer = PerTableCacheLayer(store, PerTableConfig(0.2), hw)
            per_table = ids_total // num_tables
            batch = TraceBatch(
                [rng.integers(0, 2000, per_table).astype(np.uint64)
                 for _ in range(num_tables)],
                batch_size=per_table,
            )
            executor = Executor(hw)
            layer.query(batch, executor)
            return executor.stats.maintenance_time

        assert run(16) > 2 * run(2)

    def test_serving_keeps_no_recency_runs(self, hw):
        """Nothing pops victims from the baseline's indexes (bucket LRU
        displaces in place), so none keeps the flat cache's stamp runs."""
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
        )
        layer = PerTableCacheLayer(
            EmbeddingStore(dataset.table_specs(), hw), PerTableConfig(0.05),
            hw,
        )
        server = InferenceServer(dataset, layer, hw, depth=2)
        report = server.serve(
            PoissonArrivals(dataset, 50_000.0, seed=1).generate(300)
        )
        assert len(report.batch_sizes) > 1
        assert all(len(cache.index) for cache in layer.caches)
        assert all(cache.index._recency is None for cache in layer.caches)

    def test_memory_usage_per_table(self, small_store, hw):
        layer = PerTableCacheLayer(small_store, PerTableConfig(0.1), hw)
        usage = layer.memory_usage()
        assert len(usage) == small_store.num_tables

    def test_wrong_table_count_rejected(self, small_store, hw):
        from repro.errors import ConfigError

        layer = PerTableCacheLayer(small_store, PerTableConfig(0.1), hw)
        bad = TraceBatch([np.zeros(1, np.uint64)], batch_size=1)
        with pytest.raises(ConfigError):
            layer.query(bad, Executor(hw))
