"""Flat-cache snapshots: warm restarts for serving (operational feature).

A serving process that restarts with a cold cache serves its first
minutes at DRAM speed — production stacks therefore persist the cache's
hot set and restore it at boot.  :func:`snapshot` captures a FlatCache's
live entries (keys, vectors, recency) into a compact
:class:`CacheSnapshot`; :func:`restore` loads one into a freshly built
cache of any compatible geometry (a smaller cache keeps the hottest
prefix).

DRAM pointers are deliberately *not* snapshotted: after a restart the
CPU-DRAM layer's layout cannot be trusted (the §5 invalidation argument),
so the unified index restarts empty and the tuner re-grows it.

A snapshot also stamps the replica's model-refresh position — the model
version and update-log offset last applied — so a restored replica knows
exactly where to resume replaying the update stream instead of silently
re-applying or skipping updates, and the refreshed rows its host store
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..errors import WorkloadError
from .flat_cache import FlatCache
from .unified_index import is_dram_pointer, untag


@dataclass(frozen=True)
class CacheSnapshot:
    """The captured hot set of a flat cache."""

    key_bits: int
    #: per-dimension entry arrays: dim -> (keys, stamps, vectors)
    entries: Dict[int, tuple]
    #: model version the replica had applied when snapshotted (0 = none).
    model_version: int = 0
    #: update-log offset last applied (-1 = stream never consumed).
    log_offset: int = -1
    #: the host store's ``written_rows()`` (table -> (ids, rows)).
    host_rows: Dict[int, tuple] = field(default_factory=dict)

    @property
    def num_entries(self) -> int:
        return sum(len(keys) for keys, _, _ in self.entries.values())


def snapshot(
    cache: FlatCache, model_version: int = 0, log_offset: int = -1,
    host_rows: Optional[Dict[int, tuple]] = None,
) -> CacheSnapshot:
    """Capture every cached embedding (not DRAM pointers) with recency,
    plus the given ``host_rows``."""
    keys, values, stamps = cache.index.scan()
    cached = ~is_dram_pointer(values)
    keys = keys[cached]
    stamps = stamps[cached]
    locations = untag(values[cached])
    dims = cache.pool.dim_of_locations(locations)

    entries: Dict[int, tuple] = {}
    for dim in np.unique(dims):
        mask = dims == dim
        vectors = cache.pool.read(locations[mask])
        entries[int(dim)] = (
            keys[mask].copy(), stamps[mask].copy(), vectors.copy()
        )
    return CacheSnapshot(
        key_bits=cache.codec.key_bits,
        entries=entries,
        model_version=int(model_version),
        log_offset=int(log_offset),
        host_rows=dict(host_rows or {}),
    )


def restore(cache: FlatCache, snap: CacheSnapshot) -> int:
    """Load a snapshot into ``cache``; returns the entries restored.

    Entries are inserted hottest-first (equal stamps: the higher slot of
    the snapshotted index first, the reverse of a stable ascending sort),
    so when the target cache is smaller than the snapshot, the coldest
    tail is the part that does not fit.  The codec must agree on key
    width (otherwise flat keys would mean different IDs).
    """
    if snap.key_bits != cache.codec.key_bits:
        raise WorkloadError(
            f"snapshot key width {snap.key_bits} != cache's "
            f"{cache.codec.key_bits}"
        )
    restored = 0
    cache.tick()
    for dim, (keys, stamps, vectors) in snap.entries.items():
        if dim not in cache.pool.dims():
            raise WorkloadError(
                f"snapshot contains dimension {dim} the cache lacks"
            )
        order = np.argsort(stamps, kind="stable")[::-1]  # hottest first
        budget = cache.pool.free_of(dim)
        take = min(budget, len(order))
        chosen = order[:take]
        inserted, _ = cache.admit_and_insert(
            keys[chosen], vectors[chosen], dim
        )
        restored += int(inserted.sum())
    return restored
