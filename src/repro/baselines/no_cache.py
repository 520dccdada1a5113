"""The no-caching reference: every lookup served by CPU-DRAM.

The paper omits this configuration from its figures because GPU caching is
already "more than 5x" faster (§2.1, §6.1); the class exists so the claim
can be verified and so examples can show the baseline-of-baselines.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import ConfigError
from ..gpusim.executor import Executor
from ..gpusim.stats import Category
from ..hardware import HardwareSpec
from ..tables.store import EmbeddingStore
from ..workloads.trace import TraceBatch
from ..core.cache_base import CacheQueryResult, EmbeddingCacheScheme


class NoCacheLayer(EmbeddingCacheScheme):
    """Embedding layer with no GPU cache at all."""

    name = "no-cache"

    def __init__(self, store: EmbeddingStore, hw: HardwareSpec):
        self.store = store
        self.hw = hw

    def memory_usage(self) -> Dict[str, int]:
        return {}

    def query(self, batch: TraceBatch, executor: Executor) -> CacheQueryResult:
        if batch.num_tables != self.store.num_tables:
            raise ConfigError("batch table count does not match the store")
        outputs: List[np.ndarray] = []
        unique_keys = degraded = 0
        stream = executor.stream("h2d")
        for t, ids in enumerate(batch.ids_per_table):
            unique, inverse = np.unique(
                np.asarray(ids, dtype=np.uint64), return_inverse=True
            )
            result = self.store.query_many(np.full(len(unique), t), unique)
            degraded += result.degraded_keys
            # ``query_many`` answers no ids with a (0, 0) matrix.
            vectors = result.vectors.reshape(
                len(unique), self.store.spec_of(t).dim
            )
            executor.host_work(result.cost.index_time, Category.DRAM_INDEX)
            executor.host_work(result.cost.copy_time, Category.DRAM_COPY)
            executor.copy(vectors.nbytes, Category.DRAM_COPY, async_stream=stream)
            outputs.append(vectors[inverse])
            unique_keys += len(unique)
        executor.synchronize(None)
        # Misses follow the per-access convention of every other scheme
        # (duplicates weighted): with no cache, every raw key misses —
        # keeping the ``lookups == hits + misses`` conservation law exact.
        return CacheQueryResult(
            outputs=outputs,
            hits=0,
            misses=batch.total_ids,
            unique_keys=unique_keys,
            total_keys=batch.total_ids,
            degraded_keys=degraded,
        )
