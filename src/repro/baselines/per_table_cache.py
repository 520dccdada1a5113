"""The static per-table cache scheme (HugeCTR-Inference, paper §2.2).

For every embedding table ``E_i`` the scheme keeps a fixed-size cache table
``C_i`` on the GPU, sized as the *same proportion* of each table's corpus.
Querying launches one coupled index+copy kernel per cache table, placed on
a separate CUDA stream; once each kernel finishes, the CPU reads back the
missing ID list, probes the host table, copies the missing embeddings up,
and inserts them (one replacement kernel per table).

The two deficiencies the paper measures emerge directly:

* the static split can only capture per-table local hotspots, so the hit
  rate trails a global cache (Issue 1, Figure 3);
* maintenance cost grows with the number of per-table kernels
  (Issue 2, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import ConfigError
from ..gpusim.executor import Executor
from ..gpusim.stats import Category
from ..hardware import HardwareSpec
from ..hashindex.slab_hash import SlabHashIndex
from ..tables.store import EmbeddingStore
from ..workloads.trace import TraceBatch
from ..core.cache_base import CacheQueryResult, EmbeddingCacheScheme
from ..core.workflow import coupled_query_kernel_spec

#: Host cost of deduplicating one key on the CPU (hash-set insert).
_HOST_DEDUP_COST_PER_KEY = 4e-9
#: CPU cost of replaying a captured CUDA graph (one driver call).
GRAPH_REPLAY_OVERHEAD = 6.0e-6
#: Residual per-node dispatch cost inside a CUDA graph replay.
GRAPH_NODE_OVERHEAD = 1.0e-6


@dataclass(frozen=True)
class PerTableConfig:
    """Configuration of the per-table baseline.

    ``use_cuda_graph`` models the paper's §2.2 side experiment: capturing
    the per-table launch sequence in a CUDA graph amortises the per-kernel
    CPU launch cost into one graph replay, but the per-kernel device-side
    scheduling, metadata copies and synchronisation remain — which is why
    the paper reports "the findings are similar".
    """

    cache_ratio: float = 0.05
    use_cuda_graph: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.cache_ratio <= 1.0:
            raise ConfigError("cache_ratio must be in (0, 1]")


class _TableCache:
    """One fixed-size cache table: slab-hash index + dense vector storage.

    Storage rows coincide with index slots, so bucket-local LRU
    displacement automatically reuses the displaced row — this is the
    set-associative design HugeCTR's GPU cache uses.
    """

    def __init__(self, capacity: int, dim: int, load_factor: float):
        self.capacity = max(capacity, 1)
        self.dim = dim
        self.index = SlabHashIndex(self.capacity, load_factor=load_factor)
        self.storage = np.zeros((self.index.slots, dim), dtype=np.float32)

    @property
    def hbm_bytes(self) -> int:
        return self.storage.nbytes + self.index.metadata_bytes

    def lookup(self, ids: np.ndarray, stamp: int):
        found, slots, stats = self.index.lookup(ids, stamp=stamp)
        vectors = np.zeros((len(ids), self.dim), dtype=np.float32)
        if found.any():
            vectors[found] = self.storage[slots[found].astype(np.int64)]
        return found, vectors, stats

    def insert(self, ids: np.ndarray, vectors: np.ndarray, stamp: int):
        ids = np.ascontiguousarray(ids, dtype=np.uint64)
        result = self.index.insert(
            ids,
            np.zeros(len(ids), dtype=np.uint64),  # payload filled below
            stamp=stamp,
        )
        if len(result.keys):
            slots = result.slots
            # Payload = landing slot, so lookups can gather storage rows.
            self.index._values[slots] = slots.astype(np.uint64)
            # Map the deduplicated keys back to their input rows.
            first_of_key = {int(k): i for i, k in enumerate(ids)}
            rows = np.array(
                [first_of_key[int(k)] for k in result.keys], dtype=np.int64
            )
            self.storage[slots] = vectors[rows]
        return result.stats


class PerTableCacheLayer(EmbeddingCacheScheme):
    """HugeCTR-style embedding layer: n static caches, n coupled kernels."""

    name = "hugectr"

    def __init__(
        self,
        store: EmbeddingStore,
        config: PerTableConfig,
        hw: HardwareSpec,
    ):
        self.store = store
        self.config = config
        self.hw = hw
        # The same HBM-accounting rule as the flat cache: 24 B/slot of index
        # metadata is charged against each table's byte budget; each index
        # is sized for a load factor of 1.
        self.caches: List[_TableCache] = []
        for spec in store.specs:
            budget = config.cache_ratio * spec.param_bytes
            slot_cost = spec.dim * 4 + 24.0
            self.caches.append(
                _TableCache(
                    capacity=max(1, int(budget // slot_cost)),
                    dim=spec.dim,
                    load_factor=1.0,
                )
            )
        self._clock = 0

    # ------------------------------------------------------------------ info

    def memory_usage(self) -> Dict[str, int]:
        return {
            f"table{i}": cache.hbm_bytes for i, cache in enumerate(self.caches)
        }

    # ------------------------------------------------------------------ query

    def query(self, batch: TraceBatch, executor: Executor) -> CacheQueryResult:
        if batch.num_tables != self.store.num_tables:
            raise ConfigError("batch table count does not match the store")
        self._clock += 1
        stamp = self._clock

        # Host-side per-table dedup ("Other" time, grows with batch size).
        executor.host_work(
            _HOST_DEDUP_COST_PER_KEY * batch.total_ids, Category.OTHER
        )
        unique_per_table = []
        inverse_per_table = []
        for ids in batch.ids_per_table:
            unique, inverse = np.unique(
                np.asarray(ids, dtype=np.uint64), return_inverse=True
            )
            unique_per_table.append(unique)
            inverse_per_table.append(inverse.astype(np.int64))

        # Launch one coupled query kernel per cache table, each on its own
        # stream (the CPU launch sequence itself is serial: Issue 2).  With
        # CUDA graphs the launches collapse into one replay call plus a
        # residual per-node dispatch, but everything else stays (§2.2).
        per_kernel_cost = None
        if self.config.use_cuda_graph:
            executor.host_work(GRAPH_REPLAY_OVERHEAD, Category.MAINTENANCE)
            per_kernel_cost = GRAPH_NODE_OVERHEAD
        lookups = []
        for t, unique in enumerate(unique_per_table):
            stream = executor.stream(f"table{t}")
            executor.copy(
                24 + 8 * len(unique), Category.CACHE_INDEX, async_stream=stream
            )
            found, vectors, _ = self.caches[t].lookup(unique, stamp=stamp)
            spec = coupled_query_kernel_spec(
                f"ptc_query_t{t}",
                num_keys=len(unique),
                hit_rows=int(found.sum()),
                output_rows=int(batch.sizes[t]),
                dim=self.caches[t].dim,
                hw=self.hw,
                concurrent_tables=batch.num_tables,
            )
            executor.launch(
                spec, stream=stream, category=Category.CACHE_INDEX,
                launch_cost=per_kernel_cost,
            )
            lookups.append((found, vectors))

        # Per table: synchronise, read the miss list back, query DRAM,
        # ship the embeddings up, and insert them (replacement kernel).
        hits = misses = degraded = 0
        per_table_hits: List[int] = []
        per_table_misses: List[int] = []
        outputs: List[np.ndarray] = []
        for t, unique in enumerate(unique_per_table):
            stream = executor.stream(f"table{t}")
            executor.synchronize(stream)
            found, vectors = lookups[t]
            miss_ids = unique[~found]
            executor.copy(max(1, len(miss_ids)) * 8, Category.MAINTENANCE)
            # Per-access accounting: weight each unique key by its
            # occurrence count in the batch.
            counts = np.bincount(inverse_per_table[t], minlength=len(unique))
            table_hits = int(counts[found].sum())
            table_misses = int(counts[~found].sum())
            hits += table_hits
            misses += table_misses
            per_table_hits.append(table_hits)
            per_table_misses.append(table_misses)

            if len(miss_ids):
                store_result = self.store.query_many(
                    np.full(len(miss_ids), t), miss_ids
                )
                degraded += store_result.degraded_keys
                executor.host_work(
                    store_result.cost.index_time, Category.DRAM_INDEX
                )
                executor.host_work(
                    store_result.cost.copy_time, Category.DRAM_COPY
                )
                executor.copy(
                    store_result.vectors.nbytes,
                    Category.DRAM_COPY,
                    async_stream=stream,
                )
                vectors[~found] = store_result.vectors
                self.caches[t].insert(miss_ids, store_result.vectors, stamp)
                executor.launch(
                    coupled_query_kernel_spec(
                        f"ptc_replace_t{t}",
                        num_keys=len(miss_ids),
                        hit_rows=len(miss_ids),
                        output_rows=0,
                        dim=self.caches[t].dim,
                        hw=self.hw,
                    ),
                    stream=stream,
                    category=Category.CACHE_INDEX,
                )
            outputs.append(vectors[inverse_per_table[t]])

        executor.synchronize(None)
        total_unique = sum(len(u) for u in unique_per_table)
        return CacheQueryResult(
            outputs=outputs,
            hits=hits,
            misses=misses,
            unified_hits=0,
            unique_keys=total_unique,
            total_keys=batch.total_ids,
            degraded_keys=degraded,
            per_table_hits=per_table_hits,
            per_table_misses=per_table_misses,
        )
