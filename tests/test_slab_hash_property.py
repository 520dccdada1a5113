"""Property-based tests for the slab hash index (hypothesis)."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.precision import PrecisionConfig
from repro.core.unified_index import (
    is_dram_pointer,
    tag_dram_pointer,
    untag,
)
from repro.hashindex.slab_hash import (
    CACHE_KIND,
    DRAM_KIND,
    EMPTY_KEY,
    SLAB_SLOTS,
    SlabHashIndex,
    _bucket_of,
)
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs

key_lists = st.lists(
    st.integers(min_value=0, max_value=2**48 - 1), min_size=0, max_size=60
)


@settings(max_examples=60, deadline=None)
@given(keys=key_lists)
def test_inserted_keys_are_always_found(keys):
    """Every inserted key is retrievable while capacity is not exceeded."""
    idx = SlabHashIndex(capacity=4096)
    arr = np.array(sorted(set(keys)), dtype=np.uint64)
    idx.insert(arr, arr, stamp=1)
    found, values, _ = idx.lookup(arr)
    assert found.all()
    np.testing.assert_array_equal(values, arr)


@settings(max_examples=60, deadline=None)
@given(keys=key_lists, probes=key_lists)
def test_lookup_matches_dict_semantics(keys, probes):
    """The index behaves exactly like a Python dict (no false hits)."""
    idx = SlabHashIndex(capacity=4096)
    reference = {}
    arr = np.array(keys, dtype=np.uint64)
    vals = np.arange(len(arr), dtype=np.uint64)
    idx.insert(arr, vals, stamp=1)
    for k, v in zip(arr.tolist(), vals.tolist()):
        reference.setdefault(k, v)  # first occurrence wins on duplicates
    probe_arr = np.array(probes, dtype=np.uint64)
    found, values, _ = idx.lookup(probe_arr)
    for i, k in enumerate(probe_arr.tolist()):
        assert found[i] == (k in reference)
        if found[i]:
            assert values[i] == reference[k]


@settings(max_examples=40, deadline=None)
@given(keys=key_lists)
def test_erase_then_lookup_misses(keys):
    idx = SlabHashIndex(capacity=4096)
    arr = np.unique(np.array(keys, dtype=np.uint64))
    idx.insert(arr, arr, stamp=1)
    idx.erase(arr)
    found, _, _ = idx.lookup(arr)
    assert not found.any()
    assert len(idx) == 0


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=2**20), min_size=1, max_size=200
    ),
    stamps=st.integers(min_value=0, max_value=100),
)
def test_size_never_exceeds_slots(keys, stamps):
    """Bucket-local eviction keeps occupancy bounded by physical slots."""
    idx = SlabHashIndex(capacity=32, load_factor=1.0)
    arr = np.array(keys, dtype=np.uint64)
    idx.insert(arr, arr, stamp=stamps)
    assert len(idx) <= idx.slots


@settings(max_examples=40, deadline=None)
@given(keys=key_lists)
def test_scan_agrees_with_size(keys):
    idx = SlabHashIndex(capacity=4096)
    arr = np.array(keys, dtype=np.uint64)
    idx.insert(arr, arr, stamp=3)
    scanned, _, _ = idx.scan()
    assert len(scanned) == len(idx)
    assert set(scanned.tolist()) == set(np.unique(arr).tolist())


# ---------------------------------------------------------------------------
# insert: however many rounds, same result as one key at a time
# ---------------------------------------------------------------------------


def _assert_same_index(a, b):
    for column in ("_keys", "_values", "_stamps", "_size"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


def _insert_one_by_one(idx, keys, values, stamp, overwrite):
    """Scalar model of ``insert``: first occurrences in batch order, each
    probing its slab alone — match, else first vacant slot, else the
    slab's stalest slot."""
    seen, evicted, landed, kept = set(), [], [], []
    for key, value in zip(keys.tolist(), values.tolist()):
        if key in seen:
            continue
        seen.add(key)
        kept.append(key)
        base = int(_bucket_of(np.array([key], np.uint64), idx.num_buckets)[0])
        base *= SLAB_SLOTS
        slab = idx._keys[base:base + SLAB_SLOTS]
        hit = np.flatnonzero(slab == np.uint64(key))
        vacant = np.flatnonzero(slab == EMPTY_KEY)
        if len(hit):
            slot = base + int(hit[0])
            if overwrite:
                idx._values[slot] = value
        else:
            if len(vacant):
                slot = base + int(vacant[0])
                idx._size += 1
            else:
                slot = base + int(idx._stamps[base:base + SLAB_SLOTS].argmin())
                evicted.append(int(idx._values[slot]))
            idx._keys[slot] = key
            idx._values[slot] = value
        idx._stamps[slot] = stamp
        landed.append(slot)
    return evicted, landed, kept


#: Keys of three buckets of a 256-bucket index: batches drawn from them
#: put many keys in one bucket, so they run three or more rounds.
_CROWDED = np.arange(40_000, dtype=np.uint64)
_CROWDED = _CROWDED[_bucket_of(_CROWDED, 256) < 3][:120].tolist()

#: ``(capacity, resident keys, their stamps, batch, batch stamp)``.
#: Two buckets force full slabs, evictions and many rounds; 256 buckets
#: give batches of one to three rounds.
_spread_inserts = st.tuples(
    st.sampled_from([32, 4096]),
    st.lists(st.integers(0, 400), max_size=80),
    st.lists(st.integers(0, 3), min_size=80, max_size=80),
    st.lists(st.integers(0, 400), min_size=1, max_size=60),
    st.just(9),
)
#: Three or more rounds: nine distinct keys over three buckets put three
#: in one, and the buckets fill mid-batch, so the one-pass placement
#: hands over to per-round eviction, which may displace a key the batch
#: matched or placed earlier.  A batch stamp at or below the residents'
#: makes the batch's own writes the stalest slots an eviction can pick.
_crowded_inserts = st.tuples(
    st.just(4096),
    st.lists(st.sampled_from(_CROWDED), max_size=45),
    st.lists(st.integers(0, 3), min_size=45, max_size=45),
    st.tuples(
        st.lists(st.sampled_from(_CROWDED), min_size=9, max_size=60,
                 unique=True),
        st.lists(st.integers(0, 8), max_size=10),
    ).map(lambda pair: pair[0] + [pair[0][i] for i in pair[1]]),
    st.integers(0, 4),
)


@settings(max_examples=240, deadline=None)
@given(case=st.one_of(_spread_inserts, _crowded_inserts),
       overwrite=st.booleans())
# A bucket runs out of vacant slots mid-batch, and its evicting key picks
# the stalest slot before a later key of the batch re-stamps its own.
@example(
    case=(
        4096,
        [305, 291, 6065, 4242, 6689, 9087, 2107, 9704, 8200, 6668, 3327,
         7278, 3348, 6973, 8484, 7590, 6363, 4249, 7576, 2128, 2121, 2440,
         5462, 9995, 4256, 7, 5753, 1213, 3334, 5164],
        [1, 3, 1, 0, 3, 0, 2, 1, 3, 2, 1, 2, 0, 2, 3, 0, 1, 0, 0, 0, 1, 2,
         3, 1, 3, 0, 0, 3, 0, 3],
        [7881, 7, 2731, 7583, 9995, 6051, 3334, 6973, 4554, 1830, 305],
        1,
    ),
    overwrite=True,
)
def test_insert_equals_one_key_at_a_time(case, overwrite):
    capacity, resident, resident_stamps, batch, stamp = case
    idx = SlabHashIndex(capacity=capacity, load_factor=1.0)
    for key, key_stamp in zip(resident, resident_stamps):  # heavy ties
        one = np.array([key], dtype=np.uint64)
        idx.insert(one, one + np.uint64(1000), stamp=key_stamp)
    model = copy.deepcopy(idx)

    keys = np.array(batch, dtype=np.uint64)  # may repeat keys
    values = np.arange(len(keys), dtype=np.uint64) + np.uint64(5000)
    result = idx.insert(keys, values, stamp=stamp, overwrite=overwrite)
    evicted, landed, kept = _insert_one_by_one(
        model, keys, values, stamp, overwrite
    )

    _assert_same_index(idx, model)
    assert result.keys.tolist() == kept
    assert result.slots.tolist() == landed
    assert sorted(result.evicted_values.tolist()) == sorted(evicted)
    # Rounds == the most keys any one bucket received.
    buckets = _bucket_of(np.array(kept, np.uint64), idx.num_buckets)
    assert result.stats.dependent_hops == np.bincount(buckets).max()
    assert result.stats.transactions == 2 * len(kept)


# ---------------------------------------------------------------------------
# Slot-level maintenance == the scan-copy-then-insert/erase sequences
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.integers(0, 5000), min_size=1, max_size=150),
    stamps=st.lists(st.integers(0, 4), min_size=150, max_size=150),
    before=st.integers(0, 4),
    count=st.integers(0, 40),
)
def test_slot_retag_and_erase_equal_keyed_insert_and_erase(
    keys, stamps, before, count
):
    """Victims picked by slot, rewritten in place, leave the index
    exactly as re-probing them by key did."""
    slotted = SlabHashIndex(capacity=128)
    for key, stamp in zip(keys, stamps):
        one = np.array([key], dtype=np.uint64)
        slotted.insert(one, one << np.uint64(1), stamp=stamp)
    keyed = copy.deepcopy(slotted)

    # Old: copy the occupied columns, mask, argsort, re-probe by key.
    k, v, s = keyed.scan()
    cold = s <= before
    order = np.argsort(s[cold])
    retag, drop = order[:count], order[count:2 * count]
    keyed.insert(k[cold][retag], k[cold][retag] | np.uint64(1), stamp=7)
    keyed.erase(k[cold][drop])

    # New: the occupied slots in slot order, one mask, same argsort, no
    # probe.
    occupied = slotted.cold_slots()
    slots = occupied[slotted.slot_entries(occupied)[2] <= before]
    k2, v2, s2 = slotted.slot_entries(slots)
    np.testing.assert_array_equal(k2, k[cold])
    np.testing.assert_array_equal(v2, v[cold])
    np.testing.assert_array_equal(s2, s[cold])
    order2 = np.argsort(s2)
    retag2, drop2 = order2[:count], order2[count:2 * count]
    slotted.retag_slots(slots[retag2], k2[retag2] | np.uint64(1), 7)
    slotted.erase_slots(slots[drop2])

    _assert_same_index(slotted, keyed)
    for got, want in zip(slotted.scan(), keyed.scan()):
        np.testing.assert_array_equal(got, want)


# The flat cache's maintenance passes as they were when they copied the
# scanned columns and re-probed every victim through insert / erase
# (victims the oldest stamps, ties by slot).


def _keyed_demote_cold(cache, count):
    keys, values, stamps = cache.index.scan()
    cold = ~is_dram_pointer(values) & (stamps <= cache._clock - 2)
    if count <= 0 or not cold.any():
        return
    victims = np.argsort(stamps[cold], kind="stable")[:count]
    cache.index.insert(
        keys[cold][victims], tag_dram_pointer(keys[cold][victims]),
        stamp=cache._clock,
    )
    cache.reclaimer.retire(untag(values[cold])[victims])
    cache.unified_entries += len(victims)
    cache.obs.inc("cache.demotions", len(victims))


def _keyed_set_unified_capacity(cache, capacity):
    if capacity < cache.unified_entries:
        keys, values, stamps = cache.index.scan()
        dram = is_dram_pointer(values)
        order = np.argsort(stamps[dram], kind="stable")
        cache.index.erase(keys[dram][order[:cache.unified_entries - capacity]])
        cache.unified_entries = capacity
    elif capacity > cache.unified_entries:
        _keyed_demote_cold(cache, capacity - cache.unified_entries)
    cache.unified_capacity = capacity


def _keyed_evict(cache, dim, need):
    keys, values, stamps = cache.index.scan()
    cache_mask = ~is_dram_pointer(values)
    locations = untag(values[cache_mask])
    in_class = cache.pool.dim_of_locations(locations) == dim
    class_keys = keys[cache_mask][in_class]
    if len(class_keys) == 0:
        return
    target_live = int(cache.pool.capacity_of(dim) * cache.config.evict_low_watermark)
    to_evict = min(max(need, len(class_keys) - target_live), len(class_keys))
    victims = np.argsort(
        stamps[cache_mask][in_class], kind="stable"
    )[:to_evict]
    victim_keys = class_keys[victims]
    demote = min(
        max(0, cache.unified_capacity - cache.unified_entries),
        len(victim_keys),
    )
    if demote:
        cache.index.insert(
            victim_keys[:demote], tag_dram_pointer(victim_keys[:demote]),
            stamp=cache._clock,
        )
        cache.unified_entries += demote
    if len(victim_keys) > demote:
        cache.index.erase(victim_keys[demote:])
    cache.reclaimer.retire(locations[in_class][victims])
    cache.obs.inc("cache.evictions", len(victims))
    if demote:
        cache.obs.inc("cache.demotions", demote)
    cache.reclaimer.advance()
    freed = cache.reclaimer.collect()
    if len(freed):
        cache.pool.release(freed)


def _keyed_clear_unified_index(cache):
    keys, values, _ = cache.index.scan()
    dram = is_dram_pointer(values)
    if dram.any():
        cache.index.erase(keys[dram])
    cache.unified_entries = 0


@settings(max_examples=50, deadline=None)
@given(
    # A few distinct clocks over ~100 entries: almost every stamp ties.
    fills=st.lists(
        st.lists(st.integers(0, 299), min_size=1, max_size=40),
        min_size=2, max_size=5,
    ),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("capacity"), st.integers(0, 60)),
            st.tuples(st.just("evict"), st.integers(1, 30)),
            st.tuples(st.just("clear"), st.just(0)),
            st.tuples(st.just("tick"), st.just(0)),
        ),
        min_size=1, max_size=8,
    ),
)
def test_flat_cache_maintenance_equals_scan_and_reprobe(fills, steps):
    dim = 8
    cache = FlatCache(
        make_table_specs([300], [dim]),
        FlecheConfig(cache_ratio=0.4, unified_index_fraction=1.0),
    )
    for ids in fills:
        cache.tick()
        features = np.unique(np.array(ids, dtype=np.uint64))
        keys = cache.encode(0, features)
        fresh = ~cache.contains_cached(keys)
        cache.admit_and_insert(
            keys[fresh], reference_vectors(0, features[fresh], dim), dim
        )
    keyed = copy.deepcopy(cache)

    for action, amount in steps:
        if action == "capacity":
            cache.set_unified_capacity(amount)
            _keyed_set_unified_capacity(keyed, amount)
        elif action == "evict":
            cache._evict(dim, "fp32", need=amount)
            _keyed_evict(keyed, dim, amount)
        elif action == "clear":
            cache.clear_unified_index()
            _keyed_clear_unified_index(keyed)
        else:
            cache.tick()
            keyed.tick()
        _assert_same_index(cache.index, keyed.index)
        assert cache.unified_entries == keyed.unified_entries
        assert cache.pool.free_of(dim) == keyed.pool.free_of(dim)
        assert cache.reclaimer.pending == keyed.reclaimer.pending
    assert cache.obs.snapshot().to_dict() == keyed.obs.snapshot().to_dict()


# ---------------------------------------------------------------------------
# LRU victims from the recency queues == the scan + stable-argsort pickers
# ---------------------------------------------------------------------------


def _scan_oldest(index, kind, count=None, newest=None, keep=None):
    """The pickers as they were: scan every occupied slot, mask the kind
    (and stamp, and class), stable-argsort the stamps: ties by slot."""
    slots = index.cold_slots()
    _, values, stamps = index.slot_entries(slots)
    mask = (values & np.uint64(1)) == np.uint64(kind)
    if newest is not None:
        mask &= stamps <= newest
    if keep is not None:
        mask[mask] = keep(values[mask])
    order = stamps[mask].argsort(kind="stable")
    return slots[mask][order][:count]


class _CheckedIndex(SlabHashIndex):
    """Every pop checked against the scan picker it replaces."""

    pops = 0

    def oldest(self, kind, count, newest=None, keep=None):
        want = _scan_oldest(self, kind, count, newest, keep)
        got = super().oldest(kind, count, newest, keep)
        assert got.tolist() == want.tolist(), (kind, count, newest)
        _CheckedIndex.pops += len(got) > 0
        return got

    def live_slots(self, kind):
        want = _scan_oldest(self, kind)
        got = super().live_slots(kind)
        assert got.tolist() == want.tolist(), kind
        _CheckedIndex.pops += len(got) > 0
        return got


class _CheckedCache(FlatCache):
    """Every eviction's pool-derived live count checked against a scan."""

    def _evict(self, dim, tier, need):
        slots = self.index.cold_slots()
        _, values, _ = self.index.slot_entries(slots)
        cached = untag(values[~is_dram_pointer(values)])
        scanned = int(np.count_nonzero(self._in_class(dim, tier, cached)))
        assert self._class_live(dim, tier) == scanned
        super()._evict(dim, tier, need)


#: One slab class; two dimensions; two precision tiers of one dimension.
_CACHES = {
    "one class": ([300], [8], PrecisionConfig()),
    "two dims": ([300, 300], [8, 4], PrecisionConfig()),
    "two tiers": ([300], [8], PrecisionConfig(fp32_share=0.5,
                                              fp16_share=0.5)),
}

_ids = st.lists(st.integers(0, 599), max_size=40)
_cache_steps = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.just(0), st.just([])),
        st.tuples(st.just("lookup"), st.just(0), _ids),
        st.tuples(st.just("insert"), st.just(0), _ids),
        # A mid-batch eviction, then inserts at the same clock.
        st.tuples(st.just("evict"), st.integers(1, 40), _ids),
        st.tuples(st.just("publish"), st.just(0), _ids),
        st.tuples(st.just("demote"), st.integers(1, 40), st.just([])),
        st.tuples(st.just("shrink"), st.integers(0, 40), st.just([])),
        st.tuples(st.just("clear"), st.just(0), st.just([])),
        st.tuples(st.just("retag"), st.integers(1, 40), st.just([])),
        st.tuples(st.just("copy"), st.just(0), st.just([])),
    ),
    min_size=1, max_size=30,
)


def _groups(cache, ids):
    """``ids`` as distinct flat keys and reference rows per dimension."""
    n = len(cache.specs)
    ids = np.array(ids, dtype=np.int64)
    groups = {}
    for spec in cache.specs:
        features = np.unique(
            (ids[ids % n == spec.table_id] // n).astype(np.uint64)
        )
        keys = cache.encode(spec.table_id, features)
        rows = reference_vectors(spec.table_id, features, spec.dim)
        old_keys, old_rows = groups.get(spec.dim, (keys[:0], rows[:0]))
        groups[spec.dim] = (
            np.concatenate([old_keys, keys]), np.concatenate([old_rows, rows])
        )
    return groups


def _insert(cache, ids):
    for dim, (keys, rows) in _groups(cache, ids).items():
        fresh = ~cache.contains_cached(keys)
        cache.admit_and_insert(keys[fresh], rows[fresh], dim)


def _lookup(cache, ids):
    """A batch's stamped probe, feeding the estimator and retiering hits."""
    for dim, (keys, _) in _groups(cache, ids).items():
        cache.observe_keys(keys)
        outcome = cache.index_lookup(keys)
        hit = outcome.cache_hit
        locations = outcome.locations[hit]
        cache.retier_hits(
            keys[hit], locations, cache.gather(locations), dim
        )


def _run_cache_steps(shape, fill, steps):
    corpora, dims, precision = _CACHES[shape]
    cache = _CheckedCache(
        make_table_specs(corpora, dims),
        FlecheConfig(cache_ratio=0.3, unified_index_fraction=0.5,
                     precision=precision),
    )
    cache.index.__class__ = _CheckedIndex
    classes = [(dim, tier) for dim in sorted(set(dims))
               for tier in cache._tiers]
    cache.tick()
    _insert(cache, fill)
    for action, amount, ids in steps:
        if action == "tick":
            cache.tick()
        elif action == "lookup":
            _lookup(cache, ids)
        elif action == "insert":
            _insert(cache, ids)
        elif action == "evict":
            dim, tier = classes[amount % len(classes)]
            cache._evict(dim, tier, need=amount)
            _insert(cache, ids)
        elif action == "publish":
            for keys, _ in _groups(cache, ids).values():
                cache.publish_dram_pointers(keys, keys)
        elif action == "demote":
            cache.set_unified_capacity(cache.unified_entries + amount)
        elif action == "shrink":
            cache.set_unified_capacity(min(amount, cache.unified_entries))
        elif action == "clear":
            cache.clear_unified_index()
        elif action == "retag":
            # Restamp entries with their own payloads at this clock.
            slots = cache.index.cold_slots()[:amount]
            _, values, _ = cache.index.slot_entries(slots)
            cache.index.retag_slots(slots, values, cache._clock)
        else:
            cache = copy.deepcopy(cache)
    # Every live entry of both kinds, once, in the pickers' order.
    cache.index.live_slots(CACHE_KIND)
    cache.index.live_slots(DRAM_KIND)
    ok, detail = cache._audit_pool()
    assert ok, detail


@settings(max_examples=120, deadline=None)
@given(shape=st.sampled_from(sorted(_CACHES)), fill=_ids,
       steps=_cache_steps)
def test_recency_queues_pop_the_scan_pickers_victims(shape, fill, steps):
    _run_cache_steps(shape, fill, steps)


@pytest.mark.parametrize("shape", sorted(_CACHES))
def test_recency_queues_pop_in_every_shape(shape):
    """Each step of the property above pops real victims: demotion,
    shrink, a mid-batch eviction and the clear."""
    steps = [("tick", 0, []), ("tick", 0, []), ("demote", 20, []),
             ("shrink", 5, []), ("evict", 30, list(range(1, 200, 2))),
             ("clear", 0, [])]
    before = _CheckedIndex.pops
    _run_cache_steps(shape, list(range(0, 600, 2)), steps)
    assert _CheckedIndex.pops - before >= 4


def test_recency_queues_stay_bounded():
    """Restamping the same entries batch after batch: each queue holds at
    most twice the occupancy plus one entry per bucket."""
    cache = FlatCache(
        make_table_specs([300], [8]), FlecheConfig(cache_ratio=0.3)
    )
    cache.tick()
    _insert(cache, list(range(0, 600, 2)))
    bound = 2 * len(cache.index) + cache.index.num_buckets
    for _ in range(200):
        cache.tick()
        _lookup(cache, list(range(0, 600, 2)))
        assert all(q.entries <= bound for q in cache.index._recency)
    assert len(cache.index._recency[CACHE_KIND].stamps) < 200
