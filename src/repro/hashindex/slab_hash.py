"""GPU-resident slab hash index (SlabHash).

The structure mirrors the dynamic slab hash of Ashkiani et al.: an array of
buckets, each bucket a fixed-width *slab* of slots scanned warp-cooperatively
in one global-memory transaction.  Fleche and the HugeCTR baseline both use
this index (paper §4); Fleche additionally stores a logical timestamp in
each slot for approximate LRU and read/write conflict detection (§3.1).

The reproduction keeps the structure exact but stores it in flat numpy
arrays and performs batched, vectorised operations:

* ``keys``   — per-slot flat key (uint64), ``EMPTY_KEY`` when vacant;
* ``values`` — per-slot payload (uint64 — a memory-pool location or a
  tagged CPU-DRAM pointer for Fleche's unified index);
* ``stamps`` — per-slot logical timestamp.

An index built with ``recency=True`` also keeps, per payload kind, an LRU
queue of the ``(stamp, slot)`` writes (:class:`StampRuns`), so the flat
cache's maintenance passes find their victims without a whole-index scan.
A payload's kind is its low bit (:data:`KIND_BIT`), the unified index's
tag: :data:`CACHE_KIND` a pool location, :data:`DRAM_KIND` a DRAM pointer.

Every batched operation returns :class:`ProbeStats` describing how many
random memory transactions and dependent hops the equivalent GPU kernel
would execute; callers feed these into :class:`repro.gpusim.KernelSpec`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..errors import SimulationError

#: Sentinel stored in vacant slots.  Flat keys are re-encoded IDs, so the
#: all-ones pattern is never produced by the coding layer.
EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Slots per slab.  A warp reads one 128 B transaction per probe; with
#: 8-byte keys that covers 16 slots.
_SLAB_BITS = 4
SLAB_SLOTS = 1 << _SLAB_BITS

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)

#: The payload bit that splits the recency queues.
KIND_BIT = np.uint64(1)
#: Payload kinds, the values of :data:`KIND_BIT`.
CACHE_KIND, DRAM_KIND = 0, 1


def _bucket_of(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Multiplicative hash of uint64 flat keys onto buckets (vectorised)."""
    mixed = keys * _HASH_MULT
    mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(num_buckets)).astype(np.int64)


class InsertResult:
    """Outcome of one batched insert.

    Attributes:
        evicted_values: payloads displaced by bucket-local LRU eviction.
        slots: for each (deduplicated) input key, the slot it landed in.
        keys: the deduplicated keys corresponding to ``slots``.
        stats: device cost stats of the insert kernel.
    """

    __slots__ = ("evicted_values", "slots", "keys", "stats")

    def __init__(self, evicted_values, slots, keys, stats):
        self.evicted_values = evicted_values
        self.slots = slots
        self.keys = keys
        self.stats = stats


@dataclass(frozen=True)
class ProbeStats:
    """Device-side cost summary of one batched index operation.

    Attributes:
        lookups: number of keys processed.
        transactions: random 128 B memory transactions issued.
        dependent_hops: average serial probe hops per key (drives the
            latency term of the kernel cost model).
    """

    lookups: int
    transactions: int
    dependent_hops: float

    def merged_with(self, other: "ProbeStats") -> "ProbeStats":
        total = self.lookups + other.lookups
        if total == 0:
            return ProbeStats(0, 0, 0.0)
        hops = (
            self.dependent_hops * self.lookups + other.dependent_hops * other.lookups
        ) / total
        return ProbeStats(total, self.transactions + other.transactions, hops)


#: ``ProbeStats`` by value: the stats are frozen, and batches repeat a
#: small set of key counts, so a repeat builds no new object.
probe_stats = functools.lru_cache(maxsize=4096, typed=True)(ProbeStats)


class StampRuns:
    """LRU queue of one payload kind: an index's stamp writes, one run per
    stamp, runs in stamp order.

    A run is a list of the slot chunks written at its stamp (unsorted,
    maybe repeated, maybe dead) until a pop reaches it; it is then
    settled into one sorted array of its distinct live slots.  An entry
    is live while its slot still holds that stamp, is occupied and holds
    a payload of the queue's kind, so every such slot has exactly one
    live entry: the one in the run of its stamp.  The live entries read
    from the front are in ``(stamp, slot)`` order, what a stable argsort
    of the scanned stamps gives.
    """

    __slots__ = ("kind", "stamps", "runs", "entries")

    def __init__(self, kind: int):
        #: :data:`KIND_BIT` of the entries this queue keeps.
        self.kind = np.uint64(kind)
        #: Run stamps, ascending.
        self.stamps: List[int] = []
        #: Per run, its chunks (a list) or, once settled, one array.
        self.runs: List[Union[List[np.ndarray], np.ndarray]] = []
        #: Entries held, dead ones included.
        self.entries = 0

    def push(self, slots: np.ndarray, stamp: int) -> None:
        """Record ``slots`` stamped ``stamp``, the newest stamp yet.
        Writes at one stamp fold into one run, however far apart (an
        eviction between them included): two runs of one stamp could
        each hold a slot live."""
        stamps = self.stamps
        if stamps and stamps[-1] == stamp:
            run = self.runs[-1]
            if isinstance(run, list):
                run.append(slots)
            else:
                self.runs[-1] = [run, slots]
        elif stamps and stamps[-1] > stamp:
            raise SimulationError(
                f"stamp {stamp} written after stamp {stamps[-1]}: a "
                "recency-keeping index needs a clock that never goes back"
            )
        else:
            stamps.append(stamp)
            self.runs.append([slots])
        self.entries += len(slots)


def _distinct_sorted(slots: np.ndarray) -> np.ndarray:
    """``slots`` (an array the caller owns) sorted in place, repeats
    dropped."""
    slots.sort()
    if len(slots) > 1:
        repeat = slots[1:] == slots[:-1]
        if np.count_nonzero(repeat):
            return slots[np.concatenate(([True], ~repeat))]
    return slots


class SlabHashIndex:
    """A bucketed slab hash mapping flat keys to 64-bit payloads.

    Capacity is fixed at construction (GPU memory is pre-allocated); callers
    run eviction before the table overflows, exactly as Fleche's watermark
    eviction does.
    """

    def __init__(
        self, capacity: int, load_factor: float = 0.75, recency: bool = False
    ):
        if capacity <= 0:
            raise SimulationError("slab hash capacity must be positive")
        if not 0.0 < load_factor <= 1.0:
            raise SimulationError("load factor must be in (0, 1]")
        self.capacity = int(capacity)
        self.load_factor = load_factor
        total_slots = int(np.ceil(capacity / load_factor))
        self.num_buckets = max(1, -(-total_slots // SLAB_SLOTS))
        self.slots = self.num_buckets * SLAB_SLOTS
        self._keys = np.full(self.slots, EMPTY_KEY, dtype=np.uint64)
        self._values = np.zeros(self.slots, dtype=np.uint64)
        self._stamps = np.zeros(self.slots, dtype=np.int64)
        self._size = 0
        #: Per payload kind, its queue of stamp writes (:meth:`oldest`),
        #: or None: an index nothing pops from keeps no runs.
        self._recency = (
            (StampRuns(CACHE_KIND), StampRuns(DRAM_KIND)) if recency else None
        )

    # ------------------------------------------------------------------ basics

    def __len__(self) -> int:
        return self._size

    @property
    def metadata_bytes(self) -> int:
        """HBM consumed by index metadata (keys + values + stamps)."""
        return self._keys.nbytes + self._values.nbytes + self._stamps.nbytes

    def _slabs(self) -> np.ndarray:
        return self._keys.reshape(self.num_buckets, SLAB_SLOTS)

    # ------------------------------------------------------------------ lookup

    # hot-path: vectorized
    def lookup(
        self, keys: np.ndarray, stamp: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, ProbeStats]:
        """Find ``keys`` in the index (fully vectorised).

        Args:
            keys: uint64 flat keys (may be empty, may contain duplicates).
            stamp: if given, hit slots get their timestamp refreshed to
                ``stamp`` (the approximate-LRU touch).

        Returns:
            ``(found_mask, values, stats)``: boolean hit mask, per-key
            payloads (zero where missed), and device cost stats.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return np.zeros(0, bool), np.zeros(0, np.uint64), probe_stats(0, 0, 0.0)

        rows, slot = self._probe(keys)
        found = np.zeros(n, dtype=bool)
        found[rows] = True
        values = np.zeros(n, dtype=np.uint64)
        held = self._values[slot]
        values[rows] = held
        if stamp is not None:
            self._stamps[slot] = stamp
            if self._recency is not None:
                self._note(slot, held, stamp)
        return found, values, probe_stats(n, n, 1.0)

    def _probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, slots)``: which of ``keys`` the index holds, ascending,
        and the slot each sits in.

        A key sits in at most one slot of its slab, so the matches of the
        ``(len(keys), SLAB_SLOTS)`` comparison, flattened, are the hits in
        key order: row = key, column = slot within the slab.
        """
        buckets = _bucket_of(keys, self.num_buckets)
        hits = (self._slabs()[buckets] == keys[:, None]).ravel().nonzero()[0]
        rows = hits >> _SLAB_BITS
        return rows, (buckets[rows] << _SLAB_BITS) + (hits & (SLAB_SLOTS - 1))

    # ------------------------------------------------------------------ insert

    # hot-path: vectorized
    def insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        stamp: int,
        overwrite: bool = True,
    ) -> InsertResult:
        """Insert or update ``keys`` -> ``values``.

        Duplicate keys in the batch collapse to their first occurrence.  A
        full slab forces eviction of the stalest slot in its bucket
        (approximate LRU at bucket granularity).
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if keys.shape != values.shape:
            raise SimulationError("insert: keys/values length mismatch")
        if len(keys) == 0:
            empty = np.zeros(0, np.uint64)
            return InsertResult(
                empty, np.zeros(0, np.int64), empty, probe_stats(0, 0, 0.0)
            )

        n = len(keys)
        if n > 1 and np.count_nonzero(keys[1:] <= keys[:-1]):
            _, first = np.unique(keys, return_index=True)
            if len(first) < n:
                first.sort()
                keys, values = keys[first], values[first]
                n = len(keys)

        # Key i runs in round r, its rank among same-bucket keys in batch
        # order (a serving batch of ~50 keys over a few hundred buckets
        # usually needs two rounds).  One pass over the keys sorted by
        # bucket resolves every round against the slabs as they stood
        # before the batch: a key that matches keeps its slot, and the
        # f-th fresh key of a bucket takes the bucket's f-th vacant slot.
        buckets = _bucket_of(keys, self.num_buckets)
        order = buckets.argsort(kind="stable")
        sorted_b, sorted_k, sorted_v = buckets[order], keys[order], values[order]
        run_start = sorted_b.searchsorted(sorted_b)
        round_of = np.arange(n) - run_start
        # Matches and vacancies of the (n, SLAB_SLOTS) slab rows,
        # flattened: row i's f-th vacant slot is entry start[i] + f.
        slab_keys = self._slabs()[sorted_b]
        matched = (slab_keys == sorted_k[:, None]).ravel().nonzero()[0]
        vacant = (slab_keys == EMPTY_KEY).ravel().nonzero()[0]
        vacant_count = np.bincount(vacant >> _SLAB_BITS, minlength=n)
        fresh = np.empty(n, dtype=bool)
        fresh.fill(True)
        fresh[matched >> _SLAB_BITS] = False
        fresh_seen = fresh.cumsum()
        fresh_rank = fresh_seen - (fresh_seen - fresh)[run_start] - 1
        spill = fresh & (fresh_rank >= vacant_count)
        takes = fresh & ~spill
        slots = sorted_b << _SLAB_BITS
        slots[matched >> _SLAB_BITS] += matched & (SLAB_SLOTS - 1)
        slots[takes] += vacant[
            (vacant_count.cumsum() - vacant_count + fresh_rank)[takes]
        ] & (SLAB_SLOTS - 1)
        if not np.count_nonzero(spill):
            self._write(slots, sorted_k, sorted_v, fresh, stamp, overwrite)
            self._size += int(np.count_nonzero(fresh))
            evicted = np.zeros(0, np.uint64)
        else:
            slots, evicted = self._insert_spilled(
                sorted_k, sorted_v, sorted_b, slots, fresh, spill,
                run_start, round_of, order, stamp, overwrite,
            )
        landed = np.empty(n, dtype=np.int64)
        landed[order] = slots

        # Every key reads its slab and writes it back once.
        return InsertResult(
            evicted, landed, keys,
            probe_stats(n, 2 * n, float(round_of.max() + 1)),
        )

    # hot-path: vectorized
    def _insert_spilled(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        buckets: np.ndarray,
        slots: np.ndarray,
        fresh: np.ndarray,
        spill: np.ndarray,
        run_start: np.ndarray,
        round_of: np.ndarray,
        order: np.ndarray,
        stamp: int,
        overwrite: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`insert` for a batch in which some bucket runs out of
        vacant slots.  Arrays are in bucket order; ``slots`` holds the
        one-pass placement, exact up to each bucket's first ``spill``
        (evicting) key.  From that key on, an eviction can displace a
        later key of the same batch, so those keys are placed one per
        bucket per round against the slabs as the earlier keys left them.
        Returns the final slots and the displaced payloads, ordered by
        round and then batch position."""
        spilled = spill.cumsum()
        later = spilled - (spilled - spill)[run_start] > 0
        direct = ~later
        fresh &= direct
        self._write(
            slots[direct], keys[direct], values[direct], fresh[direct],
            stamp, overwrite,
        )
        self._size += int(np.count_nonzero(fresh))

        seen = later.cumsum()
        rest = later.nonzero()[0]
        rest_round = (seen - (seen - later)[run_start] - 1)[rest]
        evicting, displaced = [], []
        for r in range(int(rest_round.max()) + 1):  # lint: allow-loop (per round after a bucket's first eviction: max keys per bucket, not key count)
            chunk = rest[rest_round == r]
            slab_keys = self._slabs()[buckets[chunk]]
            match = slab_keys == keys[chunk, None]
            has_match = match.any(axis=1)
            cols = match.argmax(axis=1)
            must_evict = ~has_match
            if np.count_nonzero(must_evict):
                stamp_rows = self._stamps.reshape(
                    self.num_buckets, SLAB_SLOTS
                )[buckets[chunk[must_evict]]]
                cols[must_evict] = stamp_rows.argmin(axis=1)
            chunk_slots = buckets[chunk] * SLAB_SLOTS + cols
            evicting.append(chunk[must_evict])
            displaced.append(self._values[chunk_slots[must_evict]])
            self._write(
                chunk_slots, keys[chunk], values[chunk], must_evict,
                stamp, overwrite,
            )
            slots[chunk] = chunk_slots
        evicting = np.concatenate(evicting)
        evicted = np.concatenate(displaced)[
            np.lexsort((order[evicting], round_of[evicting]))
        ]
        return slots, evicted

    def _write(
        self,
        slots: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        fresh: np.ndarray,
        stamp: int,
        overwrite: bool,
    ) -> None:
        """Store placed keys: ``fresh`` ones claim their slot, every one
        is stamped, and values change on fresh slots or, with
        ``overwrite``, on all."""
        fresh_slots = slots[fresh]
        self._keys[fresh_slots] = keys[fresh]
        if overwrite:
            self._values[slots] = values
        else:
            self._values[fresh_slots] = values[fresh]
        self._stamps[slots] = stamp
        if self._recency is not None:
            self._note(
                slots, values if overwrite else self._values[slots], stamp
            )

    # ------------------------------------------------------------------ erase

    # hot-path: vectorized
    def erase(self, keys: np.ndarray) -> Tuple[np.ndarray, ProbeStats]:
        """Remove ``keys``; returns (mask of keys actually removed, stats)."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return np.zeros(0, bool), probe_stats(0, 0, 0.0)
        rows, slots = self._probe(keys)
        found = np.zeros(n, dtype=bool)
        found[rows] = True
        if n > 1 and np.count_nonzero(keys[1:] <= keys[:-1]):
            slots = np.unique(slots)  # a repeated key names its slot twice
        self.erase_slots(slots)
        return found, probe_stats(n, 2 * n, 1.0)

    # ------------------------------------------------------------------ slots
    #
    # Maintenance passes (eviction, demotion to DRAM pointers, unified-index
    # shrink and clear) pick victims by slot and rewrite those slots in
    # place: the picker already knows where every entry lives, so nothing
    # is re-probed by key.

    def cold_slots(self) -> np.ndarray:
        """Occupied slot numbers in ascending order — the full-table scan
        (§3.1)."""
        return (self._keys != EMPTY_KEY).nonzero()[0]

    def slot_entries(
        self, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of ``(keys, values, stamps)`` held in ``slots``."""
        return self._keys[slots], self._values[slots], self._stamps[slots]

    def retag_slots(
        self, slots: np.ndarray, values: np.ndarray, stamp: int
    ) -> None:
        """Overwrite the payloads of occupied, distinct ``slots`` in place
        (keys stay put) and stamp them — what inserting the slots' own
        keys with new values does, minus the probe."""
        self._values[slots] = values
        self._stamps[slots] = stamp
        if self._recency is not None:
            self._note(slots, values, stamp)

    def erase_slots(self, slots: np.ndarray) -> None:
        """Vacate occupied, distinct ``slots``."""
        self._keys[slots] = EMPTY_KEY
        self._values[slots] = 0
        self._stamps[slots] = 0
        self._size -= len(slots)

    # ---------------------------------------------------------------- recency
    #
    # The victims of an LRU maintenance pass are the oldest entries of one
    # payload kind, ties by slot.  An index built with ``recency=True``
    # reads them from the front of that kind's :class:`StampRuns`, which
    # every stamp write (``lookup(stamp=)``, ``insert``, ``retag_slots``)
    # feeds.

    def _note(
        self, slots: np.ndarray, values: np.ndarray, stamp: int
    ) -> None:
        """Push ``slots``, stamped ``stamp`` and now holding ``values``,
        into the queues of their kinds.  A queue holding more than twice
        the occupancy plus one entry per bucket, whose dead entries
        therefore outnumber its live ones, is compacted."""
        dram = (values & KIND_BIT).astype(bool)
        count = int(np.count_nonzero(dram))
        cache_queue, dram_queue = self._recency
        if count < len(slots):
            cache_queue.push(slots[~dram] if count else slots, stamp)
        if count:
            dram_queue.push(slots[dram] if count < len(slots) else slots, stamp)
        bound = 2 * self._size + self.num_buckets
        if cache_queue.entries > bound:
            self._compact(cache_queue)
        if dram_queue.entries > bound:
            self._compact(dram_queue)

    def _settle(self, queue: StampRuns, at: int) -> np.ndarray:
        """Run ``at`` of ``queue`` as one sorted array of its live,
        distinct slots (stored back as the run)."""
        run = queue.runs[at]
        unsettled = isinstance(run, list)
        if unsettled:
            run = run[0] if len(run) == 1 else np.concatenate(run)
        live = self._stamps[run] == queue.stamps[at]
        live &= self._keys[run] != EMPTY_KEY
        live &= (self._values[run] & KIND_BIT) == queue.kind
        slots = run[live]
        if unsettled:
            slots = _distinct_sorted(slots)
        queue.runs[at] = slots
        queue.entries -= len(run) - len(slots)
        return slots

    # hot-path: vectorized
    def _compact(self, queue: StampRuns) -> np.ndarray:
        """Rebuild ``queue`` from its live entries, one settled run per
        stamp; returns them in queue order.  Each occupied slot of the
        queue's kind has an entry in the run of its stamp, so the live
        entries are the queue's distinct occupied slots of that kind (a
        slot a pop just handed out may come back, until its caller
        erases or retags it)."""
        chunks = [
            chunk for run in queue.runs
            for chunk in (run if isinstance(run, list) else (run,))
        ]
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        slots = _distinct_sorted(np.concatenate(chunks))
        live = self._keys[slots] != EMPTY_KEY
        live &= (self._values[slots] & KIND_BIT) == queue.kind
        slots = slots[live]
        stamps = self._stamps[slots]
        order = stamps.argsort(kind="stable")
        slots, stamps = slots[order], stamps[order]
        starts = np.flatnonzero(stamps[1:] != stamps[:-1]) + 1
        queue.stamps = stamps[:1].tolist() + stamps[starts].tolist()
        queue.runs = np.split(slots, starts) if len(slots) else []
        queue.entries = len(slots)
        return slots

    # hot-path: vectorized
    def oldest(
        self,
        kind: int,
        count: int,
        newest: Optional[int] = None,
        keep: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> np.ndarray:
        """Up to ``count`` live slots of payload ``kind``, oldest stamp
        first and ties by slot — the order
        ``stamps[cold_slots()].argsort(kind="stable")`` gives.  Only
        entries stamped at most ``newest`` count, and ``keep(payloads)``
        masks each run's live slots.  The caller retags or erases every
        slot it is given: without ``keep`` they leave the queue at once,
        with it the queue drops them as it next passes.
        """
        queue = self._recency[kind]
        picked, taken, at = [], 0, 0
        while taken < count and at < len(queue.stamps):  # lint: allow-loop (per run reached: runs per call, not keys)
            if newest is not None and queue.stamps[at] > newest:
                break
            slots = self._settle(queue, at)
            if keep is not None:
                slots = slots[keep(self._values[slots])]
            else:
                queue.runs[at] = slots[count - taken:]
                queue.entries -= min(len(slots), count - taken)
            if len(queue.runs[at]):
                at += 1
            else:
                del queue.stamps[at], queue.runs[at]
            picked.append(slots[:count - taken])
            taken += len(picked[-1])
        if len(picked) == 1:
            return picked[0]
        if not picked:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(picked)

    def live_slots(self, kind: int) -> np.ndarray:
        """Every live slot of payload ``kind``, in :meth:`oldest`'s
        order (the queue compacted on the way)."""
        return self._compact(self._recency[kind])

    def scan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-table scan: (keys, values, stamps) of occupied slots."""
        return self.slot_entries(self.cold_slots())

    def stamp_of(self, key: int) -> Optional[int]:
        """Timestamp currently recorded for ``key`` (None when absent)."""
        arr = np.array([key], dtype=np.uint64)
        found, _, _ = self.lookup(arr)
        if not found[0]:
            return None
        bucket = int(_bucket_of(arr, self.num_buckets)[0])
        row = self._slabs()[bucket]
        col = int(np.nonzero(row == arr[0])[0][0])
        return int(self._stamps[bucket * SLAB_SLOTS + col])
