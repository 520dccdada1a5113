"""Tests for the alternative designs the paper discusses (§5 / §2.2):
reduction cache, persistent kernels, and CUDA-graph HugeCTR."""

import numpy as np
import pytest

from repro.baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from repro.baselines.persistent_kernel import (
    PersistentKernelConfig,
    degraded_platform,
    query_service_time,
)
from repro.baselines.reduction_cache import ReductionCache, co_occurrence_workload
from repro.errors import ConfigError, WorkloadError
from repro.gpusim.executor import Executor
from repro.model.pooling import sum_pool
from repro.tables.store import EmbeddingStore
from repro.tables.table_spec import make_table_specs
from repro.workloads.trace import TraceBatch


@pytest.fixture()
def store(hw):
    return EmbeddingStore(make_table_specs([1000], [16]), hw)


class TestReductionCache:
    def test_pooled_matches_direct_computation(self, store):
        cache = ReductionCache(store, capacity=100)
        group = np.array([3, 7, 11], np.uint64)
        expect = sum_pool(store.table(0).lookup(group), 3)[0]
        np.testing.assert_array_equal(cache.pooled(0, group), expect)

    def test_memoization_hits_on_repeat(self, store):
        cache = ReductionCache(store, capacity=100)
        group = np.array([1, 2], np.uint64)
        cache.pooled(0, group)
        cache.pooled(0, group)
        assert cache.memo_hits == 1
        assert cache.lookups_saved == 2

    def test_group_order_irrelevant(self, store):
        cache = ReductionCache(store, capacity=100)
        cache.pooled(0, np.array([5, 9], np.uint64))
        cache.pooled(0, np.array([9, 5], np.uint64))
        assert cache.memo_hits == 1

    def test_lru_bounded(self, store):
        cache = ReductionCache(store, capacity=2)
        for i in range(5):
            cache.pooled(0, np.array([i, i + 1], np.uint64))
        assert len(cache) == 2

    def test_rejects_unsupported_pooling(self, store):
        """The §5 limitation: only decomposable pooling is memoizable."""
        with pytest.raises(WorkloadError):
            ReductionCache(store, capacity=10, pooling="attention")

    def test_mean_and_max_pooling_supported(self, store):
        for pooling in ("mean", "max"):
            ReductionCache(store, capacity=10, pooling=pooling).pooled(
                0, np.array([1, 2], np.uint64)
            )

    def test_effective_on_co_occurring_workload(self, store):
        groups = co_occurrence_workload(
            num_samples=500, group_pool_size=20, ids_per_group=4,
            corpus_size=1000, repeat_probability=0.9, seed=1,
        )
        cache = ReductionCache(store, capacity=64)
        cache.pooled_batch(0, groups)
        assert cache.hit_rate > 0.6  # MERCI's favourable regime

    def test_useless_without_co_occurrence(self, store):
        groups = co_occurrence_workload(
            num_samples=300, group_pool_size=20, ids_per_group=4,
            corpus_size=1000, repeat_probability=0.0, seed=1,
        )
        cache = ReductionCache(store, capacity=64)
        cache.pooled_batch(0, groups)
        assert cache.hit_rate < 0.05

    def test_capacity_validation(self, store):
        with pytest.raises(ConfigError):
            ReductionCache(store, capacity=0)


class TestPersistentKernel:
    def test_no_launch_overhead_in_service_time(self, hw):
        config = PersistentKernelConfig()
        t = query_service_time(hw, config, num_keys=100, dim=32)
        # Far below even two kernel launches.
        assert t < 2 * hw.kernel.launch_overhead + 1e-4

    def test_degraded_platform_slows_compute(self, hw):
        config = PersistentKernelConfig(sm_fraction=0.25)
        slow = degraded_platform(hw, config)
        assert slow.gpu.peak_flops == pytest.approx(0.75 * hw.gpu.peak_flops)
        assert slow.gpu.max_resident_threads < hw.gpu.max_resident_threads

    def test_mlp_is_slower_under_persistent_kernel(self, hw):
        """The §5 rejection: the resident kernel steals SMs from the MLP."""
        from repro.model.mlp import MLP

        config = PersistentKernelConfig(sm_fraction=0.3)
        slow_hw = degraded_platform(hw, config)
        mlp = MLP(512, [1024, 1024])

        def mlp_time(platform):
            executor = Executor(platform)
            for spec in mlp.kernels(batch_size=4096):
                executor.launch(spec)
            return executor.drain()

        assert mlp_time(slow_hw) > 1.2 * mlp_time(hw)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PersistentKernelConfig(sm_fraction=0.0)
        with pytest.raises(ConfigError):
            PersistentKernelConfig(sm_fraction=1.0)

    def test_service_time_scales_with_keys(self, hw):
        config = PersistentKernelConfig()
        small = query_service_time(hw, config, 100, 32)
        large = query_service_time(hw, config, 10_000, 32)
        assert large > small


class TestCudaGraphBaseline:
    def _run(self, hw, rng, use_graph, num_tables=24):
        specs = make_table_specs([2000] * num_tables, [16] * num_tables)
        store = EmbeddingStore(specs, hw)
        layer = PerTableCacheLayer(
            store,
            PerTableConfig(cache_ratio=0.2, use_cuda_graph=use_graph),
            hw,
        )
        batches = [
            TraceBatch(
                [rng.integers(0, 2000, 64).astype(np.uint64)
                 for _ in range(num_tables)],
                batch_size=64,
            )
            for _ in range(6)
        ]
        executor = Executor(hw)
        for b in batches[:3]:
            layer.query(b, executor)
        executor.reset()
        for b in batches[3:]:
            layer.query(b, executor)
        executor.drain()
        return executor.stats

    def test_graph_reduces_launch_cost(self, hw, rng):
        plain = self._run(hw, rng, use_graph=False)
        graphed = self._run(hw, rng, use_graph=True)
        assert graphed.maintenance_time < plain.maintenance_time

    def test_findings_are_similar(self, hw, rng):
        """§2.2: even with CUDA graphs, maintenance still grows with the
        table count — the per-node dispatch, metadata copies, and syncs
        remain proportional to n."""
        def maintenance(num_tables):
            return self._run(hw, rng, True, num_tables).maintenance_time

        assert maintenance(48) > 1.8 * maintenance(8)

    def test_graph_config_validation(self):
        with pytest.raises(ConfigError):
            PerTableConfig(cache_ratio=0.0, use_cuda_graph=True)
