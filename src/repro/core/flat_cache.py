"""The flat cache (FC) data structure (paper §3.1, Figure 5).

FC is organised as key-value separation: a slab memory pool stores all
embeddings (one slab class per embedding dimension), and one GPU-resident
slab-hash index maps *flat keys* to tagged pointers — either a memory-pool
location (LSB 0) or, when the unified index is enabled, a CPU-DRAM pointer
(LSB 1).  Each index slot carries a timestamp implementing approximate LRU
and doubling as a version for conflict detection.

Because all tables share the one backend, cache shares per table expand and
contract elastically with the workload's global hotspot — the property that
closes HugeCTR's hit-rate gap (Figure 12).

This module is the pure data structure: every method returns the probe
statistics and byte counts the *workflow* layer converts into simulated
time, so the structure itself stays unit-testable without an executor.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..coding.size_aware import SizeAwareCodec
from ..errors import ConfigError
from ..hashindex.slab_hash import (
    EMPTY_KEY,
    InsertResult,
    ProbeStats,
    SlabHashIndex,
    probe_stats,
)
from ..mempool.epoch import EpochReclaimer
from ..mempool.slab_pool import SlabMemoryPool
from ..obs.registry import Observable
from ..tables.table_spec import TableSpec
from .admission import AdmissionFilter, FrequencyEstimator
from .config import FlecheConfig
from .precision import (
    TIER_CODES,
    TIERS,
    make_eviction_policy,
    slot_payload_bytes,
)
from .unified_index import (
    is_dram_pointer,
    tag_cache_location,
    tag_dram_pointer,
    untag,
)

#: Cache ticks between halvings of every frequency-sketch counter: aging
#: is what makes demotion and LFU eviction track a drifting hotspot.
AGING_INTERVAL = 64


class IndexOutcome:
    """Result of the indexing phase over one deduplicated key batch."""

    __slots__ = ("cache_hit", "dram_hit", "locations", "stats")

    def __init__(self, cache_hit, dram_hit, locations, stats):
        #: Mask over the batch: present in the index with a cache location.
        self.cache_hit = cache_hit
        #: Mask over the batch: present in the index with a DRAM pointer.
        self.dram_hit = dram_hit
        #: Raw (untagged) pool locations; valid where ``cache_hit``.
        self.locations = locations
        #: Device probe statistics of the indexing kernel.
        self.stats = stats

    @property
    def miss(self) -> np.ndarray:
        """Mask of keys with no usable cached embedding (DRAM hits miss too —
        the unified index only short-circuits host *indexing*)."""
        return ~self.cache_hit


class FlatCache(Observable):
    """One global cache backend shared by all embedding tables."""

    def __init__(
        self,
        specs: Sequence[TableSpec],
        config: FlecheConfig,
    ):
        if not specs:
            raise ConfigError("flat cache needs at least one table spec")
        self.specs = list(specs)
        self.config = config
        self.codec = SizeAwareCodec(
            [s.corpus_size for s in specs], key_bits=config.key_bits
        )

        # Size the pool: cache_ratio of total parameter bytes, split across
        # dimension classes proportionally to each class's parameter share.
        # Index metadata (24 B/slot: key + tagged pointer + timestamp) is
        # charged against the same budget.  Unified-index pointers live in
        # the index's load-factor headroom plus a bounded slack region; the
        # tuner trades cached embeddings for pointers dynamically (§3.3),
        # so the slack is not pre-charged against the pool.
        total_bytes = sum(s.param_bytes for s in specs)
        budget = config.cache_ratio * total_bytes
        unified_factor = (
            config.unified_index_fraction if config.use_unified_index else 0.0
        )
        index_overhead = 24.0 / config.index_load_factor
        bytes_per_dim: Dict[int, int] = {}
        for s in specs:
            bytes_per_dim[s.dim] = bytes_per_dim.get(s.dim, 0) + s.param_bytes
        precision = config.precision
        self.precision = precision
        self.quantizing = precision.quantizing
        # Each dimension's byte share splits across precision tiers by the
        # configured fractions; slimmer slots buy more slots at the same
        # byte budget (the effective-capacity multiplier).  The default,
        # all-fp32 split is the paper's one class per dimension.
        tiers = precision.tiers_in_use()
        class_capacities = {}
        for dim, dim_bytes in bytes_per_dim.items():
            share = budget * (dim_bytes / total_bytes)
            for tier in tiers:
                tier_share = share * precision.share_of(tier)
                cost = slot_payload_bytes(dim, tier) + index_overhead
                class_capacities[(dim, tier)] = max(
                    16, int(tier_share // cost)
                )
        self.pool = SlabMemoryPool(class_capacities)
        #: Tiers every dimension has a class for, hottest first.
        self._tiers = tiers
        #: Desired tier code -> the nearest *hotter* code with a class (a
        #: zero-share tier has none; fp32 always has one).
        present = [TIER_CODES[t] for t in tiers]
        self._clamp = np.array(
            [max(p for p in present if p <= c) for c in range(len(TIERS))],
            dtype=np.int8,
        )
        #: Payload bytes of a slot when every class is one tier's.
        self._slot_bytes = (
            {dim: slot_payload_bytes(dim, tiers[0]) for dim in bytes_per_dim}
            if len(tiers) == 1 else None
        )

        total_slots = sum(class_capacities.values())
        unified_slots = int(total_slots * unified_factor)
        self.index = SlabHashIndex(
            capacity=total_slots + unified_slots,
            load_factor=config.index_load_factor,
        )
        self._estimator = (
            FrequencyEstimator(seed=config.seed)
            if precision.needs_estimator else None
        )
        self.admission = AdmissionFilter(
            config.admission_probability,
            seed=config.seed,
            estimator=self._estimator,
        )
        self._eviction_policy = make_eviction_policy(precision.eviction_policy)
        self.reclaimer = EpochReclaimer()
        self._clock = 0
        #: Index inserts that published cached entries so far.  A batch
        #: notes it at its index probe; while it is unchanged, nothing
        #: has cached a key that probe missed.
        self.cached_inserts = 0
        #: live unified-index entries (bounded by the tuner's capacity).
        self.unified_entries = 0
        self.unified_capacity = unified_slots if config.use_unified_index else 0
        self._dim_of_table = {s.table_id: s.dim for s in specs}

    # ------------------------------------------------------------------ obs

    def _register_observability(self, registry) -> None:
        registry.add_check("flatcache.pool-accounting", self._audit_pool)

    def _audit_pool(self):
        """Audit hook: refresh pool/index occupancy gauges and cross-check
        slot accounting against a live index scan.

        Feeds the declarative ``pool.live + pool.free == pool.capacity``
        law, and directly verifies the stronger invariant that every
        occupied pool slot is either reachable from the index or awaiting
        epoch reclamation (no slot leaks, no double frees).
        """
        capacity = sum(self.pool.capacity_of(d) for d in self.pool.dims())
        free = sum(self.pool.free_of(d) for d in self.pool.dims())
        live = capacity - free
        pending = self.reclaimer.pending
        _, values, _ = self.index.scan()
        cache_mask = ~is_dram_pointer(values)
        cached = int(cache_mask.sum())
        obs = self.obs
        obs.set_gauge("pool.capacity", capacity)
        obs.set_gauge("pool.live", live)
        obs.set_gauge("pool.free", free)
        obs.set_gauge("pool.pending_reclaim", pending)
        obs.set_gauge("cache.live_entries", cached)
        obs.set_gauge("cache.unified_entries", self.unified_entries)
        if self.quantizing:
            self._refresh_precision_gauges(untag(values[cache_mask]), cached)
        ok = live == cached + pending
        return ok, (f"pool occupies {live} slots but index scan sees "
                    f"{cached} live + {pending} pending reclaim")

    def _refresh_precision_gauges(
        self, locations: np.ndarray, cached: int
    ) -> None:
        """Per-tier entry/byte/drift gauges from one live index scan.

        Feeds the ``precision.entry-split`` / ``precision.bytes-bounded``
        / ``precision.tier-drift`` conservation laws — only emitted on
        quantizing caches, so a one-tier (all-fp32) cache never grows a
        ``precision.*`` key.
        """
        obs = self.obs
        codes = self.pool.tier_codes_of_locations(locations)
        payload = self.pool.payload_bytes_of_locations(locations)
        obs.set_gauge("precision.cached_entries", cached)
        for tier, code in TIER_CODES.items():
            mask = codes == code
            obs.set_gauge(f"precision.entries_{tier}", int(mask.sum()))
            obs.set_gauge(f"precision.bytes_{tier}", int(payload[mask].sum()))
        obs.set_gauge("precision.byte_budget", self.pool.total_bytes)
        drift = (
            self.pool.born_of_locations(locations).astype(np.int64)
            - codes.astype(np.int64)
        )
        obs.set_gauge("precision.drift_up_live", int(drift[drift > 0].sum()))
        obs.set_gauge("precision.drift_dn_live", int(-drift[drift < 0].sum()))

    # ------------------------------------------------------------------ info

    @property
    def capacity_slots(self) -> int:
        """Total embedding slots across all slab classes."""
        return sum(self.pool.capacity_of(d) for d in self.pool.dims())

    def memory_usage(self) -> Dict[str, int]:
        return {
            "pool": self.pool.total_bytes,
            "index": self.index.metadata_bytes,
        }

    def tick(self) -> int:
        """Advance the logical clock (one tick per batch); returns stamp."""
        self._clock += 1
        self.reclaimer.advance()
        freed = self.reclaimer.collect()
        if len(freed):
            self.pool.release(freed)
        if self._estimator is not None and self._clock % AGING_INTERVAL == 0:
            self._estimator.age()
        return self._clock

    # ------------------------------------------------------------------ encode

    def encode(self, table_id: int, feature_ids: np.ndarray) -> np.ndarray:
        """Re-encode one table's feature IDs to flat keys (§3.1)."""
        return self.codec.encode(table_id, feature_ids)

    # ------------------------------------------------------------------ index

    # hot-path: vectorized
    def index_lookup(self, flat_keys: np.ndarray) -> IndexOutcome:
        """Indexing kernel: resolve flat keys to tagged pointers."""
        found, pointers, stats = self.index.lookup(flat_keys, stamp=self._clock)
        tagged = is_dram_pointer(pointers)
        return IndexOutcome(
            cache_hit=found & ~tagged,
            dram_hit=found & tagged,
            locations=untag(pointers),
            stats=stats,
        )

    def contains_cached(self, flat_keys: np.ndarray) -> np.ndarray:
        """Mask of keys currently holding a *cache* location (not a pointer).

        A pure metadata probe — no LRU stamp refresh.  The replacement path
        of a pipelined batch uses it to skip keys that a concurrently
        in-flight batch already inserted: re-inserting would overwrite the
        index entry in place and leak the existing pool slot.  It only
        needs to when :attr:`cached_inserts` moved since the batch's
        index probe.
        """
        found, pointers, _ = self.index.lookup(flat_keys)
        return found & ~is_dram_pointer(pointers)

    # ------------------------------------------------------------------ read

    # hot-path: vectorized
    def gather(self, locations: np.ndarray) -> np.ndarray:
        """Copying kernel: read embeddings at pool ``locations``.

        Thread safety comes from epoch-based reclamation: slots freed by a
        concurrent eviction cannot be reused before this reader finishes.
        """
        epoch = self.reclaimer.pin()
        try:
            return self.pool.read(locations)
        finally:
            self.reclaimer.unpin(epoch)

    # ------------------------------------------------------------------ insert

    # hot-path: vectorized
    def admit_and_insert(
        self,
        flat_keys: np.ndarray,
        vectors: np.ndarray,
        dim: int,
        dram_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, ProbeStats]:
        """Cache replacement for missing embeddings (§3.1).

        Applies the probability filter, allocates pool slots, writes the
        vectors (the decoupled copying kernel), and only then publishes the
        key -> location mappings (the indexing kernel) — the order §3.3
        prescribes, since copying is invisible to indexing.  On a
        mixed-precision cache the admitted keys split into one group per
        tier (:meth:`_spill_codes`) and each group runs that sequence in
        its own class; a one-tier cache's keys are one group.

        Returns:
            ``(inserted_mask, stats)``: which of ``flat_keys`` actually
            entered the cache, and the index-update probe stats.
        """
        n = len(flat_keys)
        inserted_mask = np.zeros(n, dtype=bool)
        if n == 0:
            return inserted_mask, probe_stats(0, 0, 0.0)
        admitted = self.admission.admit(flat_keys)
        positions = admitted.nonzero()[0]
        if len(positions) == 0:
            return inserted_mask, probe_stats(0, 0, 0.0)
        tiers = self._tiers
        if len(tiers) == 1:
            groups = ((tiers[0], positions),)
            # One group: its index stats pass through as they are (a merge
            # into zero stats re-divides the hop mean and may round it).
            stats = None
        else:
            codes = self._spill_codes(dim, flat_keys, positions)
            groups = [
                (TIERS[code], positions[codes == code])
                for code in np.unique(codes)
            ]
            stats = probe_stats(0, 0, 0.0)
        inserted = 0
        for tier, sel in groups:  # lint: allow-loop (per tier class of one dimension)
            free = self.pool.free_of(dim, tier)
            if free < len(sel):
                self._evict(dim, tier, need=len(sel) - free)
                free = self.pool.free_of(dim, tier)
                if free < len(sel):  # class smaller than one batch's misses
                    sel = sel[:free]
            if len(sel) == 0:
                continue
            keys = flat_keys[sel]
            rows = vectors[sel]
            # Admitted keys currently carrying a DRAM pointer get their
            # entry overwritten with a cache location: fewer unified
            # entries live.  (``dram_mask`` lets callers who already
            # indexed skip the lookup.)
            if dram_mask is not None:
                promoted = int(np.count_nonzero(dram_mask[sel]))
            else:
                found, pointers, _ = self.index.lookup(keys)
                promoted = int(
                    np.count_nonzero(found & is_dram_pointer(pointers))
                )
            self.unified_entries = max(0, self.unified_entries - promoted)
            locations = self.pool.allocate(dim, len(keys), tier)
            self.pool.write(locations, rows)  # copying kernel, quantizing
            result = self._publish_cached(keys, locations)
            self._release_displaced(result.evicted_values)
            inserted_mask[sel] = True
            inserted += len(sel)
            stats = (
                result.stats if stats is None
                else stats.merged_with(result.stats)
            )
        if not inserted:
            return inserted_mask, probe_stats(0, 0, 0.0)
        self.obs.inc("cache.inserted", inserted)
        return inserted_mask, stats

    def _spill_codes(
        self, dim: int, flat_keys: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Tier codes of the admitted keys at ``positions`` of a
        mixed-precision cache.

        Each key's frequency estimate assigns it a tier (hot → fp32,
        warm → fp16, tail → int8).  Tier classes fill under *spill*
        pressure: when a class has fewer free slots than candidates, the
        highest-estimate candidates take the free slots and the overflow
        demotes to the next colder tier — a hot key served at reduced
        precision still hits, which beats churning another hot entry out
        of the cache.  Only the coldest tier evicts, so total entry
        capacity is the binding constraint (the effective-capacity
        multiplier the tiering is for); on-hit retiering later promotes
        spilled keys as fp32 room opens up.
        """
        codes = self._clamp[self.admission.tier_codes(flat_keys[positions])]
        available = [TIER_CODES[t] for t in self._tiers]
        for i, code in enumerate(available[:-1]):
            sel = np.nonzero(codes == code)[0]
            free = self.pool.free_of(dim, TIERS[code])
            if len(sel) > free:
                counts = self._estimator.estimate(
                    flat_keys[positions[sel]]
                )
                keep = np.argsort(-counts, kind="stable")[:free]
                spill = np.setdiff1d(sel, sel[keep], assume_unique=True)
                codes[spill] = available[i + 1]
        return codes

    def _publish_cached(
        self, keys: np.ndarray, locations: np.ndarray
    ) -> InsertResult:
        """Replacement's indexing kernel: map ``keys`` to pool
        ``locations``, counting the insert in :attr:`cached_inserts`."""
        self.cached_inserts += 1
        return self.index.insert(
            keys, tag_cache_location(locations), stamp=self._clock
        )

    # ------------------------------------------------------------ promotion

    def observe_keys(self, flat_keys: np.ndarray) -> None:
        """Feed one batch's deduplicated keys to the frequency estimator."""
        if self._estimator is not None:
            self.admission.observe(flat_keys)

    def retier_hits(
        self,
        flat_keys: np.ndarray,
        locations: np.ndarray,
        rows: np.ndarray,
        dim: int,
    ) -> Tuple[int, int]:
        """Move hit entries whose frequency crossed a tier boundary.

        ``rows`` are the freshly gathered (dequantized) vectors, so no
        second pool read is needed.  Moves are opportunistic: an entry
        only moves when its target tier has a free slot — the hit path
        never triggers an eviction, and only while the index still maps
        the key to the location the batch's probe read (a concurrent
        batch may have moved it first).  The old slot is retired through the
        epoch reclaimer (read-after-delete safety for concurrent
        pipelined readers); the entry's *born* tier rides along so the
        drift audit stays exact.  Returns ``(promoted, demoted)`` entry
        counts; the matching ``precision.promotions`` / ``.demotions``
        counters are rank-step weighted (int8 → fp32 counts two steps)
        so they balance the drift gauges in the tier-drift law.
        """
        if not self.quantizing or len(flat_keys) == 0:
            return 0, 0
        desired = self._clamp[self.admission.tier_codes(flat_keys)]
        current = self.pool.tier_codes_of_locations(locations)
        moved = desired != current
        if not moved.any():
            return 0, 0
        # Another in-flight batch may have moved or evicted a hit since
        # this batch's probe: move only entries still where it read them.
        at = np.flatnonzero(moved)
        found, values, _ = self.index.lookup(flat_keys[at])
        moved[at] = found & (values == tag_cache_location(locations[at]))
        promoted = demoted = 0
        promotion_steps = demotion_steps = 0
        for code in np.unique(desired[moved]):
            tier = TIERS[code]
            sel = np.nonzero(moved & (desired == code))[0]
            free = self.pool.free_of(dim, tier)
            if free < len(sel):
                sel = sel[:free]
            if len(sel) == 0:
                continue
            old_locations = locations[sel]
            born = self.pool.born_of_locations(old_locations)
            new_locations = self.pool.allocate(dim, len(sel), tier=tier)
            self.pool.write(new_locations, rows[sel])
            self.pool.set_born(new_locations, born)
            result = self._publish_cached(flat_keys[sel], new_locations)
            # Overwriting a live key's pointer leaves its old slot
            # unreferenced: retire it ourselves (the entry itself lives
            # on, so this is *not* an entry death for the drift audit).
            self.reclaimer.retire(old_locations)
            self._release_displaced(result.evicted_values)
            steps = current[sel].astype(np.int64) - int(code)
            promoted += int((steps > 0).sum())
            demoted += int((steps < 0).sum())
            promotion_steps += int(steps[steps > 0].sum())
            demotion_steps += int(-steps[steps < 0].sum())
        if promotion_steps:
            self.obs.inc("precision.promotions", promotion_steps)
        if demotion_steps:
            self.obs.inc("precision.demotions", demotion_steps)
        return promoted, demoted

    def read_payload_bytes(self, locations: np.ndarray, dim: int) -> int:
        """Total stored payload bytes behind ``locations`` of dimension
        ``dim`` (gather size): a one-tier cache knows it from the count."""
        if self._slot_bytes is not None:
            return len(locations) * self._slot_bytes[dim]
        return int(self.pool.payload_bytes_of_locations(locations).sum())

    # ------------------------------------------------------------------ unified

    def publish_dram_pointers(
        self, flat_keys: np.ndarray, dram_rows: np.ndarray
    ) -> int:
        """Record DRAM locations of cold embeddings in the index (§3.3)."""
        budget = self.unified_capacity - self.unified_entries
        if budget <= 0 or len(flat_keys) == 0:
            return 0
        # Keys already present (cached embedding or existing pointer) are
        # skipped: a cache entry always beats a pointer, and re-publishing
        # a pointer must not inflate the entry count.
        found, _, _ = self.index.lookup(flat_keys)
        candidates = flat_keys[~found]
        rows = np.asarray(dram_rows, dtype=np.uint64)[~found]
        if len(candidates) == 0:
            return 0
        take = min(budget, len(candidates))
        keys = candidates[:take]
        pointers = tag_dram_pointer(rows[:take])
        inserted = self.index.insert(
            keys, pointers, stamp=self._clock, overwrite=False
        )
        self._release_displaced(inserted.evicted_values)
        self.unified_entries += take
        self.obs.inc("cache.pointers_published", take)
        return take

    def _release_displaced(self, displaced: np.ndarray) -> None:
        """Retire pool slots (and unified entries) bumped by bucket LRU."""
        if not len(displaced):
            return
        dram = is_dram_pointer(displaced)
        cache_ptrs = displaced[~dram]
        if len(cache_ptrs):
            locations = untag(cache_ptrs)
            self._record_entry_death(locations)
            self.reclaimer.retire(locations)
        self.unified_entries -= int(np.count_nonzero(dram))

    def _record_entry_death(self, locations: np.ndarray) -> None:
        """Fold dying entries' net tier drift into the retired counters.

        An entry's drift (born tier rank minus current rank) leaves the
        live gauges when the entry leaves the pool; accumulating it here
        keeps ``promotions - demotions == net tier drift`` exact across
        the entry's whole lifetime (the ``precision.tier-drift`` law).
        """
        if not self.quantizing or len(locations) == 0:
            return
        drift = (
            self.pool.born_of_locations(locations).astype(np.int64)
            - self.pool.tier_codes_of_locations(locations).astype(np.int64)
        )
        up = int(drift[drift > 0].sum())
        down = int(-drift[drift < 0].sum())
        if up:
            self.obs.inc("precision.drift_up_retired", up)
        if down:
            self.obs.inc("precision.drift_dn_retired", down)

    def invalidate_dram_pointers(self, flat_keys: np.ndarray) -> int:
        """Erase unified-index entries whose DRAM target no longer exists.

        §5's corner case for giant models: when the CPU-DRAM layer is
        itself a cache, its evictions leave GPU-side DRAM pointers
        dangling.  Only entries that actually carry a DRAM pointer are
        touched; cached embeddings for the same keys stay valid.
        """
        flat_keys = np.ascontiguousarray(flat_keys, dtype=np.uint64)
        if len(flat_keys) == 0:
            return 0
        found, pointers, _ = self.index.lookup(flat_keys)
        stale = found & is_dram_pointer(pointers)
        if not np.count_nonzero(stale):
            return 0
        removed, _ = self.index.erase(flat_keys[stale])
        count = int(np.count_nonzero(removed))
        self.unified_entries = max(0, self.unified_entries - count)
        self.obs.inc("cache.pointers_invalidated", count)
        return count

    def clear_unified_index(self) -> int:
        """Drop every DRAM pointer (the tuner's reset action).

        Returns the number of entries removed.  Implemented as the same
        full-table scan the eviction pass uses.
        """
        slots = self.index.cold_slots()
        _, values, _ = self.index.slot_entries(slots)
        pointers = slots[is_dram_pointer(values)]
        self.index.erase_slots(pointers)
        self.unified_entries = 0
        return len(pointers)

    def set_unified_capacity(self, capacity: int) -> None:
        """Apply a tuner decision.

        Growing proactively demotes the coldest cached embeddings into DRAM
        pointers (freeing their pool slots for hotter keys); shrinking drops
        the oldest DRAM pointers.
        """
        capacity = max(0, int(capacity))
        if capacity < self.unified_entries:
            slots = self.index.cold_slots()
            _, values, stamps = self.index.slot_entries(slots)
            dram = is_dram_pointer(values)
            # Oldest pointers first, ties by slot.
            order = np.argsort(stamps[dram], kind="stable")
            surplus = self.unified_entries - capacity
            self.index.erase_slots(slots[dram][order[:surplus]])
            self.unified_entries = capacity
        elif capacity > self.unified_entries:
            self._demote_cold(capacity - self.unified_entries)
        self.unified_capacity = capacity

    # ----------------------------------------------------------------- retune
    #
    # Validated runtime knobs for the adaptive controller
    # (:mod:`repro.autotune`).  Neither mutates the frozen
    # :class:`FlecheConfig` — both act on the live admission filter, so
    # a run with the controller disabled stays byte-identical to one
    # where these methods do not exist.

    def set_admission_probability(self, probability: float) -> None:
        """Retune the cache-admission probability (insert aggressiveness)."""
        if not 0.0 < probability <= 1.0:
            raise ConfigError(
                f"admission probability must be in (0, 1], got {probability}"
            )
        self.admission.probability = float(probability)

    def set_tier_thresholds(self, hot_min_count: int, warm_min_count: int) -> None:
        """Retune the frequency thresholds assigning precision tiers."""
        if self._estimator is None:
            raise ConfigError(
                "tier thresholds need a mixed-precision cache "
                "(no frequency estimator configured)"
            )
        hot, warm = int(hot_min_count), int(warm_min_count)
        if not 0 < warm <= hot:
            raise ConfigError(
                f"need 0 < warm_min_count <= hot_min_count, got "
                f"warm={warm} hot={hot}"
            )
        self.admission.hot_min_count = hot
        self.admission.warm_min_count = warm

    # hot-path: vectorized
    def _demote_cold(self, count: int) -> None:
        """Convert up to ``count`` of the coldest cache entries to pointers.

        Only entries that have not been touched for a couple of batches are
        candidates — the paper replaces the cache of *cold* embeddings, so
        freshly inserted or recently hit entries must never be demoted.
        One mask over the raw index columns picks them (occupied, stamp at
        most ``clock - 2``, untagged); victims are the oldest stamps, ties
        by slot.
        """
        if count <= 0:
            return
        keys, values, stamps = self.index.columns()
        cold = stamps <= self._clock - 2
        cold &= keys != EMPTY_KEY
        cold &= ~is_dram_pointer(values)
        slots = cold.nonzero()[0]
        if not len(slots):
            return
        victims = slots[stamps[slots].argsort(kind="stable")[:count]]
        locations = untag(values[victims])
        self.index.retag_slots(
            victims, tag_dram_pointer(keys[victims]), self._clock
        )
        self._record_entry_death(locations)
        self.reclaimer.retire(locations)
        self.unified_entries += len(victims)
        self.obs.inc("cache.demotions", len(victims))

    # ------------------------------------------------------------------ evict

    def _evict(self, dim: int, tier: str, need: int) -> None:
        """Full-scan eviction (§3.1): drop cold entries of slab class
        ``(dim, tier)``.

        Runs when the slab class cannot satisfy an allocation; evicts the
        coldest entries until utilisation falls to the low watermark (or
        ``need`` is satisfied).
        Victim order comes from the configured eviction policy — pure
        recency by default, or a frequency-aware LFU/hybrid score over the
        estimator's counts.  On a mixed-precision pool each (dim, tier)
        class evicts independently; a one-tier pool's class is the whole
        dimension, so only the dimension filters.  Freed slots are retired through the epoch
        reclaimer, so concurrent readers never observe reuse
        (read-after-delete safety).
        """
        slots = self.index.cold_slots()
        keys, values, stamps = self.index.slot_entries(slots)
        cache_mask = ~is_dram_pointer(values)
        locations = untag(values[cache_mask])
        dims = self.pool.dim_of_locations(locations)
        in_class = dims == dim
        if len(self._tiers) > 1:
            tier_codes = self.pool.tier_codes_of_locations(locations)
            in_class &= tier_codes == TIER_CODES[tier]
        #: positions, in the scanned columns, of this class's entries.
        members = np.flatnonzero(cache_mask)[in_class]
        class_keys = keys[members]
        class_stamps = stamps[members]
        if len(class_keys) == 0:
            return

        capacity = self.pool.capacity_of(dim, tier)
        target_live = int(capacity * self.config.evict_low_watermark)
        to_evict = max(need, len(class_keys) - target_live)
        to_evict = min(to_evict, len(class_keys))
        policy = self._eviction_policy
        counts = (
            self._estimator.estimate(class_keys)
            if policy.reads_counts and self._estimator is not None else None
        )
        order = policy.victim_order(class_stamps, counts)
        victims = members[order[:to_evict]]

        # Demote as many victims as the unified-index budget allows: their
        # index entries become DRAM pointers instead of disappearing (§3.3,
        # "replacing the cache of cold embeddings with CPU-DRAM pointers").
        demote = min(
            max(0, self.unified_capacity - self.unified_entries),
            len(victims),
        )
        if demote:
            demoted = victims[:demote]
            self.index.retag_slots(
                slots[demoted], tag_dram_pointer(keys[demoted]), self._clock
            )
            self.unified_entries += demote
        self.index.erase_slots(slots[victims[demote:]])
        self.reclaimer.retire(untag(values[victims]))
        self.obs.inc("cache.evictions", len(victims))
        if demote:
            self.obs.inc("cache.demotions", demote)
        # Eviction happens between batches: the grace period elapses before
        # the next batch's readers arrive, so reclaim one epoch ahead.
        self.reclaimer.advance()
        freed = self.reclaimer.collect()
        if len(freed):
            self.pool.release(freed)

    # ------------------------------------------------------------------ debug

    def live_entries(self) -> int:
        """Number of cached embeddings (excluding DRAM pointers)."""
        _, values, _ = self.index.scan()
        return int((~is_dram_pointer(values)).sum())
