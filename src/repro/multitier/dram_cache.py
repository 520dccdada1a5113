"""The host-DRAM cache layer for giant models (paper §5).

When parameters exceed local DRAM, the CPU-DRAM layer keeps only a subset
of embeddings, backed by the remote parameter server.  It behaves as an
LRU cache keyed by (table, feature id) and — critically for Fleche —
*reports its evictions*: any GPU-side unified-index pointer referring to
an evicted entry has become dangling and must be invalidated (§5's corner
case).  Each :meth:`DramCacheLayer.lookup` returns its batch's evictions
and :meth:`DramCacheLayer.flush` the keys it dropped; the owner forwards
them (the layer keeps no callbacks, so nothing it holds points back at
its owner).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, WorkloadError
from ..obs.registry import Observable
from ..tables.store import pack_global_key
from ..tables.table_spec import TableSpec


class DramPass(NamedTuple):
    """What one batched :meth:`DramCacheLayer.lookup` found.

    Positions index the batch's ``keys``; ``missed`` lists each table's
    distinct missed keys, sorted, tables in batch order.  The rows of the
    keys the pass inserted are still owed: ``slots[i]`` takes the row of
    ``missed[sources[i]]`` (see :meth:`DramCacheLayer.fill`); a slot
    appears once, for the last key it took.  ``evicted`` is the batch's
    eviction notice: the packed keys the pass dropped, in eviction order.
    """

    hit_positions: List[int]
    hit_rows: np.ndarray
    miss_positions: List[int]
    missed: List[int]
    slots: List[int]
    sources: List[int]
    evicted: List[int]


class DramCacheLayer(Observable):
    """LRU host cache of embeddings: packed key -> row slot.

    The LRU order lives in an ``OrderedDict`` of packed key -> slot (least
    recent first); rows live in one ``(capacity, dim)`` float32 array per
    distinct table dimension, at their key's slot.  Freed slots are reused
    before the high-water mark grows.  The tier does not fetch: the
    caller runs each table's remote fetch from the ``admit`` callback of
    :meth:`lookup` and then hands over the rows with :meth:`fill`.

    Args:
        specs: the model's table specs.
        capacity: embeddings the DRAM layer can hold.
    """

    def __init__(self, specs: Sequence[TableSpec], capacity: int):
        if capacity <= 0:
            raise ConfigError("DRAM cache capacity must be positive")
        self.specs = list(specs)
        self.capacity = int(capacity)
        self._slots: "OrderedDict[int, int]" = OrderedDict()
        self._rows: Dict[int, np.ndarray] = {
            dim: np.zeros((self.capacity, dim), dtype=np.float32)
            for dim in sorted({spec.dim for spec in self.specs})
        }
        #: Slots below the high-water mark ``len(_slots) + len(_free)``
        #: that no key holds.
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self._slots)

    def flush(self) -> List[int]:
        """Drop every resident entry; returns the dropped keys, in LRU order.

        Models the DRAM tier losing its contents (process restart, a
        :class:`~repro.faults.schedule.DramTierFailure` window): every
        GPU-side unified-index pointer into the tier is now dangling, and
        the owner invalidates each returned key exactly once.
        """
        keys = list(self._slots)
        if keys:
            self._slots.clear()
            self._free.clear()
            self.obs.inc("tier.dram_evictions", len(keys))
        return keys

    # ------------------------------------------------------------------ query

    def lookup(
        self,
        segments: Sequence[Tuple[int, int, int]],
        keys: np.ndarray,
        admit: Callable[[int, List[int]], bool],
    ) -> DramPass:
        """One LRU pass over a batch of packed keys, grouped by table.

        ``segments`` lists ``(table_id, start, stop)`` of each table's
        run of ``keys``, in table order.  Each table's keys are looked up
        in order (a hit becomes most recent); then its distinct misses,
        sorted, go to ``admit(table_id, missed)``, which fetches them and
        says whether they may be cached.  If so, the least recent entries
        are evicted to make room and the misses are inserted in sorted
        order — all of them, so with more misses than capacity the first
        ones are inserted and evicted at once.  The batch's evictions
        come back as one notice (``evicted``), in eviction order.  Hit rows
        are gathered before any new row is written (a slot freed by one
        table may hold another's new key): the caller passes the missed
        rows to :meth:`fill` before the next lookup.
        """
        entries = self._slots
        touch = entries.move_to_end
        free = self._free
        capacity = self.capacity
        key_list = keys.tolist()
        hit_positions: List[int] = []
        hit_slots: List[int] = []
        miss_positions: List[int] = []
        missed: List[int] = []
        evicted: List[int] = []
        #: slot -> index in ``missed`` of the key the slot last took.
        owed: Dict[int, int] = {}
        # Plain Python per key, in table order: that order is the LRU
        # state, and batches carry a few keys per table.
        for table_id, start, stop in segments:
            table_misses = []
            for i in range(start, stop):
                key = key_list[i]
                slot = entries.get(key)
                if slot is None:
                    miss_positions.append(i)
                    table_misses.append(key)
                else:
                    touch(key)
                    hit_positions.append(i)
                    hit_slots.append(slot)
            if not table_misses:
                continue
            unique = sorted(set(table_misses))
            base = len(missed)
            missed.extend(unique)
            if not admit(table_id, unique):
                continue
            overflow = len(entries) + len(unique) - capacity
            for _ in range(min(overflow, len(entries))):
                key, slot = entries.popitem(last=False)
                evicted.append(key)
                free.append(slot)
            skip = max(0, len(unique) - capacity)
            evicted.extend(unique[:skip])
            for j in range(skip, len(unique)):
                slot = free.pop() if free else len(entries)
                entries[unique[j]] = slot
                owed[slot] = base + j
        dim = self.specs[segments[0][0]].dim
        hit_rows = self._rows[dim][hit_slots]
        if evicted:
            self.obs.inc("tier.dram_evictions", len(evicted))
        return DramPass(
            hit_positions, hit_rows, miss_positions, missed,
            list(owed), list(owed.values()), evicted,
        )

    # hot-path: vectorized
    def fill(self, owed: DramPass, missed_rows: np.ndarray) -> None:
        """Write the rows a :meth:`lookup` left owed, given the rows of
        its ``missed`` keys (only the admitted ones are read)."""
        if owed.slots:
            rows = self._rows[missed_rows.shape[1]]
            rows[owed.slots] = missed_rows[owed.sources]

    # ---------------------------------------------------------------- refresh

    # hot-path: vectorized
    def refresh(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Overwrite *resident* rows with refreshed model values in place.

        The model-refresh write-through: rows the DRAM tier holds are
        updated so a later cache miss faults in the new version, but
        non-resident keys are **not** admitted (an update is not an
        access — admitting it would let refresh traffic evict the
        serving working set) and recency is untouched for the same
        reason.  Returns the number of rows updated (a repeated id
        counts each time and keeps its last row).
        """
        spec = self.specs[table_id]
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape != (len(feature_ids), spec.dim):
            raise WorkloadError("refresh: ids/vectors shape mismatch")
        keys = pack_global_key(
            int(table_id), np.asarray(feature_ids, dtype=np.uint64)
        ).tolist()
        found = [
            (slot, i)
            for i, slot in enumerate(map(self._slots.get, keys))
            if slot is not None
        ]
        if not found:
            return 0
        latest = dict(found)
        self._rows[spec.dim][list(latest)] = vectors[list(latest.values())]
        self.obs.inc("tier.dram_refreshed", len(found))
        return len(found)
