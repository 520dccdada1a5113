"""Slab memory pool for cached embeddings.

The pool is carved out of one bulk device allocation at boot (avoiding the
per-call latency of ``cudaMalloc``); inside it, one *slab class* exists per
embedding dimension, since every embedding of a table has the same size
known in advance — this is how Fleche sidesteps fragmentation (§3.1).

Classes are keyed ``(dim, tier)``.  With mixed-precision tiering
(:mod:`repro.core.precision`) a dimension is split into up to three
classes — (dim, fp32), (dim, fp16), (dim, int8) — each with its own
storage dtype; quantization is fused into ``write`` and dequantization
into ``read``, so callers always speak float32 and the copy kernels stay
plain vectorised gathers.  The paper's pool is the one-tier case: one
(dim, fp32) class per dimension.

Slot handles are encoded as ``class_id << 32 | slot`` so a single uint64
payload in the GPU hash index identifies both the slab class and the slot.
The actual vectors are stored in one numpy matrix per class, making the
copy kernels plain vectorised gathers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CapacityError, SimulationError

_CLASS_SHIFT = np.uint64(32)
_SLOT_MASK = np.uint64(0xFFFFFFFF)

#: Tier names and codes, kept in sync with :mod:`repro.core.precision`
#: (duplicated here as plain data so the pool never imports ``core`` at
#: module load — the packages initialise in either order).
_TIER_FP32 = "fp32"
_TIER_CODES = {"fp32": 0, "fp16": 1, "int8": 2}
_STORAGE_DTYPE = {"fp32": np.float32, "fp16": np.float16, "int8": np.int8}

_quant_fns = None


def _quant():
    """Lazy import of the quantization kernels (non-fp32 classes only)."""
    global _quant_fns
    if _quant_fns is None:
        from ..core.precision import dequantize_rows, quantize_rows

        _quant_fns = (quantize_rows, dequantize_rows)
    return _quant_fns


def unpack_locations(locations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split uint64 locations ``class_id << 32 | slot`` into (class ids,
    slots)."""
    locations = np.asarray(locations, dtype=np.uint64)
    class_ids = (locations >> _CLASS_SHIFT).astype(np.int64)
    slots = (locations & _SLOT_MASK).astype(np.int64)
    return class_ids, slots


def _one_class(locations: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """``(class id, slots)`` of non-empty uint64 ``locations`` that all
    lie in one slab class — the common case: one dimension, no precision
    tiers — else None."""
    class_ids = locations >> _CLASS_SHIFT
    first = class_ids[0]
    if not np.count_nonzero(class_ids != first):
        return int(first), locations & _SLOT_MASK
    return None


@dataclass
class SlabClass:
    """All slots of one (embedding dimension, precision tier) pair."""

    class_id: int
    dim: int
    capacity: int
    tier: str
    storage: np.ndarray
    #: per-slot tier code the entry was *born* into: :meth:`allocate`
    #: stamps the class's own code, and a promotion or demotion carries
    #: the old code over, so the drift audit can compare each live
    #: entry's birth tier against its current class.
    born: np.ndarray
    free_slots: List[int] = field(default_factory=list)
    live: int = 0
    #: per-slot float32 dequant scale (int8 classes only).
    scales: Optional[np.ndarray] = None

    @property
    def slot_bytes(self) -> int:
        """Stored bytes per slot: values plus (int8) the per-row scale."""
        scale = 0 if self.scales is None else self.scales.itemsize
        return self.dim * self.storage.itemsize + scale

    def __deepcopy__(self, memo):
        # free_slots holds immutable ints: a shallow list copy is exact,
        # and ~100x cheaper than element-wise deepcopy for large pools.
        # Storage only carries over its *live* rows: free slots are never
        # read (every read goes through hash-index locations, and a
        # reallocated slot is written before it is republished), so their
        # stale bytes are unobservable and skipping them keeps the clone
        # cost proportional to occupancy, not capacity.
        # np.zeros (calloc) over zeros_like: pages materialise lazily, so
        # the clone faults in only the rows actually written below.
        storage = np.zeros(self.storage.shape, dtype=self.storage.dtype)
        if self.live:
            occupied = np.ones(self.capacity, dtype=bool)
            if self.free_slots:
                occupied[np.asarray(self.free_slots, dtype=np.int64)] = False
            rows = np.flatnonzero(occupied)
            storage[rows] = self.storage[rows]
        clone = SlabClass(
            class_id=self.class_id,
            dim=self.dim,
            capacity=self.capacity,
            tier=self.tier,
            storage=storage,
            born=self.born.copy(),
            free_slots=list(self.free_slots),
            live=self.live,
            scales=None if self.scales is None else self.scales.copy(),
        )
        memo[id(self)] = clone
        return clone

    def allocate(self, count: int) -> np.ndarray:
        """Take ``count`` free slots, born into this class's tier; raises
        :class:`CapacityError` if short."""
        if count > len(self.free_slots):
            raise CapacityError(
                f"slab class dim={self.dim}: requested {count} slots, "
                f"{len(self.free_slots)} free"
            )
        taken = np.asarray(self.free_slots[-count:], dtype=np.int64)
        del self.free_slots[-count:]
        self.live += count
        self.born[taken] = _TIER_CODES[self.tier]
        return taken

    def release(self, slots: np.ndarray) -> None:
        self.free_slots.extend(slots.tolist())
        self.live -= len(slots)
        if self.live < 0:
            raise SimulationError(f"slab class dim={self.dim}: negative live count")


class SlabMemoryPool:
    """Memory pool with one slab class per (dimension, tier).

    Args:
        class_capacities: ``(dim, tier) -> slot count``.  Capacities are
            derived by the cache from its byte budget.
    """

    def __init__(self, class_capacities: Dict[Tuple[int, str], int]):
        if not class_capacities:
            raise SimulationError("memory pool needs at least one slab class")
        for key in class_capacities:
            if not isinstance(key, tuple) or key[1] not in _TIER_CODES:
                raise SimulationError(
                    f"slab class key {key!r} is not (dim, tier)"
                )
        self._classes: Dict[int, SlabClass] = {}
        self._class_by_key: Dict[Tuple[int, str], int] = {}
        ordered = sorted(
            class_capacities.items(),
            key=lambda kv: (kv[0][0], _TIER_CODES[kv[0][1]]),
        )
        for class_id, ((dim, tier), capacity) in enumerate(ordered):
            dim = int(dim)
            if dim <= 0 or capacity <= 0:
                raise SimulationError(
                    f"invalid slab class dim={dim} capacity={capacity}"
                )
            storage = np.zeros((capacity, dim), dtype=_STORAGE_DTYPE[tier])
            slab = SlabClass(
                class_id=class_id,
                dim=dim,
                capacity=capacity,
                tier=tier,
                storage=storage,
                born=np.zeros(capacity, dtype=np.int8),
                free_slots=list(range(capacity)),
                scales=(
                    np.zeros(capacity, dtype=np.float32)
                    if tier == "int8" else None
                ),
            )
            self._classes[class_id] = slab
            self._class_by_key[(dim, tier)] = class_id
        # Per-class columns, indexed by class id.
        slabs = list(self._classes.values())
        self._class_dims = np.array([c.dim for c in slabs], dtype=np.int64)
        self._class_codes = np.array(
            [_TIER_CODES[c.tier] for c in slabs], dtype=np.int8
        )
        self._class_bytes = np.array(
            [c.slot_bytes for c in slabs], dtype=np.int64
        )
        self._total_slots = sum(c.capacity for c in self._classes.values())

    # ------------------------------------------------------------------ info

    @property
    def total_bytes(self) -> int:
        """Bytes of HBM the pool's allocation occupies (fp32: dim*4,
        fp16: dim*2, int8: dim+4 incl. scales, per slot)."""
        return sum(
            c.capacity * c.slot_bytes for c in self._classes.values()
        )

    @property
    def utilization(self) -> float:
        """Fraction of pool slots currently live (drives eviction, §3.1)."""
        live = sum(c.live for c in self._classes.values())
        return live / self._total_slots

    def _slabs_of(self, dim: int, tier: Optional[str]) -> List[SlabClass]:
        if tier is not None:
            class_id = self._class_by_key[(dim, tier)]
            return [self._classes[class_id]]
        slabs = [
            self._classes[cid]
            for (d, _), cid in self._class_by_key.items()
            if d == dim
        ]
        if not slabs:
            raise KeyError(dim)
        return slabs

    def dims(self) -> List[int]:
        return sorted({dim for dim, _ in self._class_by_key})

    def capacity_of(self, dim: int, tier: Optional[str] = None) -> int:
        return sum([s.capacity for s in self._slabs_of(dim, tier)])

    def free_of(self, dim: int, tier: Optional[str] = None) -> int:
        return sum([len(s.free_slots) for s in self._slabs_of(dim, tier)])

    # ------------------------------------------------------------------ alloc

    # hot-path: vectorized
    def allocate(self, dim: int, count: int, tier: str) -> np.ndarray:
        """Allocate ``count`` slots of class ``(dim, tier)``; returns
        locations."""
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        class_id = self._class_by_key.get((dim, tier))
        if class_id is None:
            raise SimulationError(
                f"no slab class for embedding dimension {dim} tier {tier}"
            )
        slots = self._classes[class_id].allocate(count)
        return (np.uint64(class_id) << _CLASS_SHIFT) | slots.astype(np.uint64)

    def release(self, locations: np.ndarray) -> None:  # hot-path: vectorized
        """Return previously allocated ``locations`` to their free lists."""
        if len(locations) == 0:
            return
        locations = np.asarray(locations, dtype=np.uint64)
        groups = _one_class(locations)
        if groups is not None:
            groups = (groups,)
        else:
            class_ids, slots = unpack_locations(locations)
            groups = ((c, slots[class_ids == c]) for c in np.unique(class_ids))
        for class_id, class_slots in groups:  # lint: allow-loop (per slab class)
            slab = self._classes.get(int(class_id))
            if slab is None:
                raise SimulationError(f"release of unknown slab class {class_id}")
            slab.release(class_slots)

    # ------------------------------------------------------------------ data

    # hot-path: vectorized
    def write(self, locations: np.ndarray, vectors: np.ndarray) -> None:
        """Store fp32 ``vectors`` (all same dim) into ``locations``.

        Quantize-on-insert: a non-fp32 class quantizes the rows to its
        storage dtype (and records per-row scales for int8) — the same
        path serves inserts *and* in-place refresh writes, so a model
        refresh re-quantizes at the entry's current tier automatically.
        Like :meth:`read`, the locations may span the (dim, tier) classes
        of one dimension: under precision tiering one table's cached
        entries sit in several tiers, and refreshing them is one write.
        """
        if len(locations) == 0:
            return
        locations = np.asarray(locations, dtype=np.uint64)
        single = _one_class(locations)
        if single is not None:
            unique, slots = (single[0],), single[1]
        else:
            class_ids, slots = unpack_locations(locations)
            unique = np.unique(class_ids)
        dims = {self._classes[int(c)].dim for c in unique}
        if len(dims) != 1:
            raise SimulationError("write: locations span multiple slab classes")
        shape = (len(locations), dims.pop())
        if vectors.shape != shape:
            raise SimulationError(
                f"write: expected shape {shape}, got {vectors.shape}"
            )
        for class_id in unique:  # lint: allow-loop (per tier class of one dimension)
            slab = self._classes[int(class_id)]
            if single is not None:
                into, rows = slots, vectors
            else:
                mask = class_ids == class_id
                into, rows = slots[mask], vectors[mask]
            if slab.tier == _TIER_FP32:
                slab.storage[into] = rows
                continue
            quantize_rows, _ = _quant()
            payload, scales = quantize_rows(rows, slab.tier)
            slab.storage[into] = payload
            if scales is not None:
                slab.scales[into] = scales

    def read(self, locations: np.ndarray) -> np.ndarray:  # hot-path: vectorized
        """Gather the fp32 vectors stored at ``locations`` (all same dim).

        Dequantize-on-gather: non-fp32 classes reconstruct float32 rows
        from their stored payload in one vectorised expression.  On a
        tiered pool the locations may span the (dim, tier) classes of one
        dimension — the gather groups per class and scatters into one
        output in location order.
        """
        if len(locations) == 0:
            return np.zeros((0, 0), dtype=np.float32)
        locations = np.asarray(locations, dtype=np.uint64)
        single = _one_class(locations)
        if single is not None:
            return self._read_class(self._classes[single[0]], single[1])
        class_ids, slots = unpack_locations(locations)
        unique = np.unique(class_ids)
        dims = {self._classes[int(c)].dim for c in unique}
        if len(dims) != 1:
            raise SimulationError("read: locations span multiple slab classes")
        out = np.empty((len(locations), dims.pop()), dtype=np.float32)
        for class_id in unique:  # lint: allow-loop (per tier class of one dimension)
            mask = class_ids == class_id
            out[mask] = self._read_class(
                self._classes[int(class_id)], slots[mask]
            )
        return out

    def _read_class(self, slab: SlabClass, slots: np.ndarray) -> np.ndarray:
        if slab.tier == _TIER_FP32:
            return slab.storage[slots]
        _, dequantize_rows = _quant()
        scales = slab.scales[slots] if slab.scales is not None else None
        return dequantize_rows(slab.storage[slots], scales, slab.tier)

    def dim_of_locations(self, locations: np.ndarray) -> np.ndarray:
        """Per-location embedding dimension (vectorised)."""
        return self._class_dims[unpack_locations(np.asarray(locations))[0]]

    def tier_codes_of_locations(self, locations: np.ndarray) -> np.ndarray:
        """Per-location precision tier code (0=fp32, 1=fp16, 2=int8)."""
        return self._class_codes[unpack_locations(np.asarray(locations))[0]]

    def payload_bytes_of_locations(self, locations: np.ndarray) -> np.ndarray:
        """Per-location stored payload bytes (values + int8 scales)."""
        return self._class_bytes[unpack_locations(np.asarray(locations))[0]]

    # ---------------------------------------------------------------- born

    def born_of_locations(self, locations: np.ndarray) -> np.ndarray:
        """Per-slot birth-tier codes."""
        class_ids, slots = unpack_locations(np.asarray(locations))
        codes = np.zeros(len(class_ids), dtype=np.int8)
        for class_id in np.unique(class_ids):
            slab = self._classes[int(class_id)]
            mask = class_ids == class_id
            codes[mask] = slab.born[slots[mask]]
        return codes

    def set_born(self, locations: np.ndarray, codes: np.ndarray) -> None:
        """Carry birth-tier codes over to slots an entry moved into."""
        if len(locations) == 0:
            return
        class_ids, slots = unpack_locations(np.asarray(locations))
        codes = np.broadcast_to(np.asarray(codes, dtype=np.int8), len(slots))
        for class_id in np.unique(class_ids):
            slab = self._classes[int(class_id)]
            mask = class_ids == class_id
            slab.born[slots[mask]] = codes[mask]
