"""The host-DRAM cache layer for giant models (paper §5).

When parameters exceed local DRAM, the CPU-DRAM layer keeps only a subset
of embeddings, backed by the remote parameter server.  It behaves as an
LRU cache keyed by (table, feature id) and — critically for Fleche —
*announces its evictions*: any GPU-side unified-index pointer referring to
an evicted entry has become dangling and must be invalidated (§5's corner
case).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, WorkloadError
from ..obs.registry import Observable
from ..tables.table_spec import TableSpec


def pack_global_key(table_id: int, feature_id):
    """One flat namespace over (table, feature) for the DRAM layer.

    ``feature_id`` is one id or a ``uint64`` array of them.
    """
    return (table_id << 48) | feature_id


class DramCacheLayer(Observable):
    """LRU host cache of embeddings, backed by a fetch callback.

    Args:
        specs: the model's table specs.
        capacity: embeddings the DRAM layer can hold.
        fetch: callback ``(table_id, feature_ids) -> (vectors, cost,
            cacheable)`` used on DRAM misses (typically the remote
            parameter server).  With ``cacheable=False`` the vectors are
            served but *not* inserted (degraded fallbacks must never
            pollute the cache).
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        capacity: int,
        fetch: Callable[[int, np.ndarray], Tuple[np.ndarray, float, bool]],
    ):
        if capacity <= 0:
            raise ConfigError("DRAM cache capacity must be positive")
        self.specs = list(specs)
        self.capacity = int(capacity)
        self._fetch = fetch
        self._entries: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._invalidation_listeners: List[Callable[[np.ndarray], None]] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ hooks

    def on_eviction(self, listener: Callable[[np.ndarray], None]) -> None:
        """Register a listener receiving the global keys of evicted rows.

        Fleche's tiered store registers the unified-index invalidator here.
        """
        self._invalidation_listeners.append(listener)

    def _evict_to_capacity(self) -> None:
        evicted = []
        while len(self._entries) > self.capacity:
            key, _ = self._entries.popitem(last=False)
            evicted.append(key)
        if evicted:
            self.evictions += len(evicted)
            self.obs.inc("tier.dram_evictions", len(evicted))
            keys = np.asarray(evicted, dtype=np.uint64)
            for listener in self._invalidation_listeners:
                listener(keys)

    def flush(self) -> int:
        """Drop every resident entry, notifying invalidation listeners.

        Models the DRAM tier losing its contents (process restart, a
        :class:`~repro.faults.schedule.DramTierFailure` window): every
        GPU-side unified-index pointer into the tier is now dangling and
        each key's invalidation fires exactly once.  Returns the number
        of entries dropped.
        """
        if not self._entries:
            return 0
        keys = np.asarray(list(self._entries.keys()), dtype=np.uint64)
        self._entries.clear()
        self.evictions += len(keys)
        self.obs.inc("tier.dram_evictions", len(keys))
        for listener in self._invalidation_listeners:
            listener(keys)
        return len(keys)

    # ------------------------------------------------------------------ query

    def lookup(
        self, table_id: int, feature_ids: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Serve one table's IDs, faulting misses in from the backing store.

        Returns ``(vectors, backing_time)`` where ``backing_time`` is the
        remote fetch cost incurred (zero when everything was resident).
        """
        spec = self.specs[table_id]
        feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
        vectors = np.zeros((len(feature_ids), spec.dim), dtype=np.float32)
        missing_positions = []
        for i, fid in enumerate(feature_ids):
            key = pack_global_key(table_id, int(fid))
            row = self._entries.get(key)
            if row is not None:
                self._entries.move_to_end(key)
                vectors[i] = row
                self.hits += 1
            else:
                missing_positions.append(i)
                self.misses += 1

        backing_time = 0.0
        if missing_positions:
            positions = np.asarray(missing_positions)
            missing_ids = feature_ids[positions]
            unique_missing, inverse = np.unique(missing_ids, return_inverse=True)
            fetched, backing_time, cacheable = self._fetch(
                table_id, unique_missing
            )
            if fetched.shape != (len(unique_missing), spec.dim):
                raise WorkloadError("backing fetch returned wrong shape")
            vectors[positions] = fetched[inverse]
            if cacheable:
                for fid, row in zip(unique_missing, fetched):
                    self._entries[pack_global_key(table_id, int(fid))] = row
                self._evict_to_capacity()
        return vectors, backing_time

    def resident(self, table_id: int, feature_id: int) -> bool:
        """Whether one (table, id) is currently cached in DRAM."""
        return pack_global_key(table_id, int(feature_id)) in self._entries

    # ---------------------------------------------------------------- refresh

    def refresh(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Overwrite *resident* rows with refreshed model values in place.

        The model-refresh write-through: rows the DRAM tier holds are
        updated so a later cache miss faults in the new version, but
        non-resident keys are **not** admitted (an update is not an
        access — admitting it would let refresh traffic evict the
        serving working set) and recency is untouched for the same
        reason.  Returns the number of rows updated.
        """
        spec = self.specs[table_id]
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape != (len(feature_ids), spec.dim):
            raise WorkloadError("refresh: ids/vectors shape mismatch")
        updated = 0
        for fid, row in zip(feature_ids, vectors):
            key = pack_global_key(table_id, int(fid))
            if key in self._entries:
                self._entries[key] = row
                updated += 1
        if updated:
            self.obs.inc("tier.dram_refreshed", updated)
        return updated
