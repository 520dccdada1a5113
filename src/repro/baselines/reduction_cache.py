"""Reduction cache: the memoization alternative (paper §5, MERCI-style).

Instead of caching individual embeddings, a reduction cache memoizes the
*pooled result* of co-appearing ID groups: if the same multi-hot group of
IDs recurs, the whole pooling computation is skipped.  The paper declines
this design because it only works for decomposable pooling (sum/avg/max)
and therefore restricts model generality; it is built here so the tradeoff
can be measured (the ``alt_reduction_cache`` row of
``benchmarks/results/claims.json``).

The implementation memoizes per (table, sorted ID group) with LRU
eviction, and reports how many DRAM/cache lookups the memo hits saved.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, WorkloadError
from ..model.pooling import max_pool, mean_pool, sum_pool
from ..obs.registry import Observable
from ..tables.store import EmbeddingStore

_POOLS = {"sum": sum_pool, "mean": mean_pool, "max": max_pool}


class ReductionCache(Observable):
    """Memoizes pooled embedding groups for one model.

    Args:
        store: the ground-truth embedding store.
        capacity: memo entries the cache can hold.
        pooling: one of ``sum``, ``mean``, ``max`` — the *only* pooling
            operators a reduction cache supports (its §5 limitation;
            attention-style pooling raises).
    """

    def __init__(self, store: EmbeddingStore, capacity: int, pooling: str = "sum"):
        if capacity <= 0:
            raise ConfigError("reduction cache capacity must be positive")
        if pooling not in _POOLS:
            raise WorkloadError(
                f"reduction caching supports {sorted(_POOLS)} pooling only; "
                f"{pooling!r} (e.g. attention) breaks memoization"
            )
        self.store = store
        self.capacity = capacity
        self.pooling = pooling
        self._pool_fn = _POOLS[pooling]
        self._memo: "OrderedDict[Tuple[int, bytes], np.ndarray]" = OrderedDict()
        self.memo_hits = 0
        self.memo_misses = 0
        self.lookups_saved = 0

    def __len__(self) -> int:
        return len(self._memo)

    @property
    def hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    def _key_of(self, table_id: int, group: np.ndarray) -> Tuple[int, bytes]:
        return table_id, np.sort(group.astype(np.uint64)).tobytes()

    def pooled(self, table_id: int, group: np.ndarray) -> np.ndarray:
        """Pooled vector of one sample's ID group for one table."""
        group = np.ascontiguousarray(group, dtype=np.uint64)
        key = self._key_of(table_id, group)
        memoized = self._memo.get(key)
        self.obs.inc("memo.queries")
        if memoized is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            self.lookups_saved += len(group)
            self.obs.inc("memo.hits")
            self.obs.inc("memo.lookups_saved", len(group))
            return memoized
        self.memo_misses += 1
        self.obs.inc("memo.misses")
        rows = self.store.table(table_id).lookup(group)
        result = self._pool_fn(rows, len(group))[0]
        self._memo[key] = result
        if len(self._memo) > self.capacity:
            self._memo.popitem(last=False)
        return result

    def pooled_batch(
        self, table_id: int, groups: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Pooled vectors for a batch of samples' groups."""
        dim = self.store.spec_of(table_id).dim
        out = np.zeros((len(groups), dim), dtype=np.float32)
        for i, group in enumerate(groups):
            out[i] = self.pooled(table_id, group)
        return out


def co_occurrence_workload(
    num_samples: int,
    group_pool_size: int,
    ids_per_group: int,
    corpus_size: int,
    repeat_probability: float = 0.8,
    seed: int = 0,
) -> List[np.ndarray]:
    """Multi-hot groups with heavy co-occurrence (MERCI's favourable case).

    With probability ``repeat_probability`` a sample reuses one of a small
    pool of recurring groups; otherwise it draws a fresh random group.
    """
    if not 0.0 <= repeat_probability <= 1.0:
        raise ConfigError("repeat_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    pool = [
        rng.integers(0, corpus_size, size=ids_per_group).astype(np.uint64)
        for _ in range(group_pool_size)
    ]
    groups = []
    for _ in range(num_samples):
        if rng.random() < repeat_probability:
            groups.append(pool[int(rng.integers(0, group_pool_size))])
        else:
            groups.append(
                rng.integers(0, corpus_size, size=ids_per_group).astype(np.uint64)
            )
    return groups
