"""Clairvoyant hit-rate upper bounds ("Optimal" in Figures 3 and 12).

The paper defines Optimal as "the ideal case where the cache knows all
accesses of datasets".  For a cache of fixed capacity serving a whole
trace, the static policy maximising hits is to pin the globally most
frequent keys (frequency-optimal); :func:`belady_hit_rate` additionally
provides Belady's MIN replacement for the online-optimal view.
"""

from __future__ import annotations

import heapq
from typing import Tuple

import numpy as np

from ..errors import WorkloadError
from ..tables.store import pack_global_key
from ..workloads.trace import Trace


def _access_stream(trace: Trace) -> Tuple[np.ndarray, int]:
    """Flatten a trace into one stream of global (table, id) keys."""
    chunks = []
    for batch in trace:
        tables, features = batch.flattened()
        chunks.append(pack_global_key(tables.astype(np.uint64), features))
    stream = np.concatenate(chunks) if chunks else np.zeros(0, np.uint64)
    return stream, len(stream)


def frequency_optimal_hit_rate(trace: Trace, capacity: int) -> float:
    """Hit rate of pinning the ``capacity`` most frequent keys.

    This is the paper's "Optimal": with full knowledge of the access
    stream, a static cache holding the top-``capacity`` keys by frequency
    upper-bounds any static allocation of the same size.
    """
    if capacity <= 0:
        raise WorkloadError("capacity must be positive")
    stream, total = _access_stream(trace)
    if total == 0:
        return 0.0
    keys, counts = np.unique(stream, return_counts=True)
    # Most frequent first; ties (the later key first) move no hit count.
    order = np.argsort(counts, kind="stable")[::-1]
    hot_hits = counts[order[:capacity]].sum()
    return float(hot_hits / total)


def belady_hit_rate(trace: Trace, capacity: int) -> float:
    """Hit rate of Belady's MIN replacement (online optimal).

    On a miss with a full cache, evict the resident key whose next use is
    farthest in the future.  Implemented with a next-use index and a lazy
    max-heap; cost is O(N log N) over the access stream.
    """
    if capacity <= 0:
        raise WorkloadError("capacity must be positive")
    stream, total = _access_stream(trace)
    if total == 0:
        return 0.0

    next_use = np.full(total, np.iinfo(np.int64).max, dtype=np.int64)
    last_seen: dict = {}
    for i in range(total - 1, -1, -1):
        key = int(stream[i])
        next_use[i] = last_seen.get(key, np.iinfo(np.int64).max)
        last_seen[key] = i

    resident: dict = {}  # key -> its currently scheduled next use
    heap: list = []  # (-next_use, key), lazily invalidated
    hits = 0
    for i in range(total):
        key = int(stream[i])
        if key in resident:
            hits += 1
        elif len(resident) < capacity:
            resident[key] = None
        else:
            # Evict the resident key with the farthest next use.
            while True:
                farthest, victim = heapq.heappop(heap)
                if victim in resident and resident[victim] == -farthest:
                    break
            del resident[victim]
            resident[key] = None
        if key in resident:
            resident[key] = int(next_use[i])
            heapq.heappush(heap, (-int(next_use[i]), key))
    return hits / total
