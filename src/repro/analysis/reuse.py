"""Reuse distances and LRU miss-ratio curves (Mattson et al., 1970).

The *reuse (stack) distance* of an access is the number of distinct keys
touched since the previous access to the same key.  Under LRU, an access
hits iff its reuse distance is smaller than the cache capacity — so the
histogram of reuse distances yields the hit rate at **every** capacity in
one pass (the classic Mattson stack algorithm).

The implementation computes exact distances with a Fenwick (binary
indexed) tree over access positions: O(N log N) time, O(N) space, fast
enough for the multi-million-access traces the replicas produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..errors import WorkloadError
from ..tables.store import pack_global_key
from ..workloads.trace import Trace


class _Fenwick:
    """Binary indexed tree over {0..n-1} supporting point add / prefix sum."""

    def __init__(self, n: int):
        self._tree = np.zeros(n + 1, dtype=np.int64)
        self._n = n

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self._n:
            self._tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum over positions [0, i]."""
        i += 1
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return int(total)


def _global_stream(trace: Trace) -> np.ndarray:
    chunks = []
    for batch in trace:
        tables, features = batch.flattened()
        chunks.append(pack_global_key(tables.astype(np.uint64), features))
    return np.concatenate(chunks) if chunks else np.zeros(0, np.uint64)


def reuse_distances(trace: Trace) -> np.ndarray:
    """Exact LRU stack distance of every access (-1 for first touches)."""
    stream = _global_stream(trace)
    n = len(stream)
    distances = np.full(n, -1, dtype=np.int64)
    tree = _Fenwick(n)
    last_position: Dict[int, int] = {}
    for i in range(n):
        key = int(stream[i])
        prev = last_position.get(key)
        if prev is not None:
            # Distinct keys touched in (prev, i) = live markers after prev.
            distances[i] = tree.prefix(i) - tree.prefix(prev)
            tree.add(prev, -1)
        tree.add(i, +1)
        last_position[key] = i
    return distances


@dataclass(frozen=True)
class MissRatioCurve:
    """LRU hit rate as a function of cache capacity (in entries)."""

    capacities: np.ndarray
    hit_rates: np.ndarray
    total_accesses: int
    distinct_keys: int

    def hit_rate_at(self, capacity: int) -> float:
        """Interpolated LRU hit rate at ``capacity`` entries."""
        if capacity <= 0:
            return 0.0
        idx = np.searchsorted(self.capacities, capacity, side="right") - 1
        idx = max(0, min(idx, len(self.capacities) - 1))
        return float(self.hit_rates[idx])

    def capacity_for(self, target_hit_rate: float) -> Optional[int]:
        """Smallest capacity achieving ``target_hit_rate`` (None if never)."""
        if not 0.0 <= target_hit_rate <= 1.0:
            raise WorkloadError("target hit rate must be in [0, 1]")
        reachable = np.nonzero(self.hit_rates >= target_hit_rate)[0]
        if not reachable.size:
            return None
        return int(self.capacities[reachable[0]])


def miss_ratio_curve(trace: Trace) -> MissRatioCurve:
    """Build the exact LRU miss-ratio curve of a trace (Mattson)."""
    distances = reuse_distances(trace)
    n = len(distances)
    if n == 0:
        raise WorkloadError("cannot build an MRC from an empty trace")
    finite = distances[distances >= 0]
    distinct = n - len(finite)

    # hits(c) = #accesses with distance < c; cumulative histogram of
    # distances gives every capacity at once.
    max_distance = int(finite.max()) if len(finite) else 0
    histogram = np.bincount(finite, minlength=max_distance + 1)
    cumulative_hits = np.cumsum(histogram)
    capacities = np.arange(1, max_distance + 2, dtype=np.int64)
    hit_rates = cumulative_hits / n
    return MissRatioCurve(
        capacities=capacities,
        hit_rates=hit_rates,
        total_accesses=n,
        distinct_keys=int(distinct),
    )
