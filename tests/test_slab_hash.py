"""Tests for the GPU slab hash index."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hashindex.slab_hash import EMPTY_KEY, SLAB_SLOTS, SlabHashIndex


def keys_of(*values):
    return np.array(values, dtype=np.uint64)


class TestBasics:
    def test_empty_index(self):
        idx = SlabHashIndex(100)
        assert len(idx) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(SimulationError):
            SlabHashIndex(0)

    def test_rejects_bad_load_factor(self):
        with pytest.raises(SimulationError):
            SlabHashIndex(100, load_factor=0.0)

    def test_slots_cover_capacity(self):
        idx = SlabHashIndex(100, load_factor=0.5)
        assert idx.slots >= 200
        assert idx.slots % SLAB_SLOTS == 0

    def test_metadata_bytes_positive(self):
        assert SlabHashIndex(100).metadata_bytes > 0


class TestInsertLookup:
    def test_roundtrip(self):
        idx = SlabHashIndex(1000)
        keys = keys_of(1, 2, 3, 4)
        values = keys * np.uint64(10)
        idx.insert(keys, values, stamp=1)
        found, got, _ = idx.lookup(keys)
        assert found.all()
        np.testing.assert_array_equal(got, values)

    def test_missing_keys_not_found(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(1, 2), keys_of(10, 20), stamp=1)
        found, _, _ = idx.lookup(keys_of(3, 4))
        assert not found.any()

    def test_mixed_hits_and_misses(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(5), keys_of(50), stamp=1)
        found, values, _ = idx.lookup(keys_of(5, 6))
        assert found.tolist() == [True, False]
        assert values[0] == 50

    def test_overwrite_updates_value(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(7), keys_of(70), stamp=1)
        idx.insert(keys_of(7), keys_of(71), stamp=2)
        _, values, _ = idx.lookup(keys_of(7))
        assert values[0] == 71
        assert len(idx) == 1

    def test_no_overwrite_preserves_value(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(7), keys_of(70), stamp=1)
        idx.insert(keys_of(7), keys_of(71), stamp=2, overwrite=False)
        _, values, _ = idx.lookup(keys_of(7))
        assert values[0] == 70

    def test_duplicate_keys_in_batch_collapse(self):
        idx = SlabHashIndex(1000)
        result = idx.insert(keys_of(9, 9, 9), keys_of(1, 2, 3), stamp=1)
        assert len(result.keys) == 1
        assert len(idx) == 1
        _, values, _ = idx.lookup(keys_of(9))
        assert values[0] == 1  # first occurrence wins

    def test_insert_reports_landing_slots(self):
        idx = SlabHashIndex(1000)
        result = idx.insert(keys_of(1, 2, 3), keys_of(0, 0, 0), stamp=1)
        assert (result.slots >= 0).all()
        assert len(np.unique(result.slots)) == 3

    def test_shape_mismatch_rejected(self):
        idx = SlabHashIndex(100)
        with pytest.raises(SimulationError):
            idx.insert(keys_of(1, 2), keys_of(1), stamp=0)

    def test_empty_batch(self):
        idx = SlabHashIndex(100)
        found, values, stats = idx.lookup(np.zeros(0, np.uint64))
        assert len(found) == 0
        assert stats.lookups == 0
        result = idx.insert(np.zeros(0, np.uint64), np.zeros(0, np.uint64), 0)
        assert len(result.keys) == 0


class TestTimestampsAndLru:
    def test_lookup_refreshes_stamp(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(3), keys_of(30), stamp=1)
        idx.lookup(keys_of(3), stamp=5)
        assert idx.stamp_of(3) == 5

    def test_lookup_without_stamp_preserves(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(3), keys_of(30), stamp=1)
        idx.lookup(keys_of(3))
        assert idx.stamp_of(3) == 1

    def test_bucket_full_evicts_stalest(self):
        # One-bucket index: SLAB_SLOTS capacity, then LRU displacement.
        idx = SlabHashIndex(SLAB_SLOTS, load_factor=1.0)
        assert idx.num_buckets == 1
        keys = np.arange(SLAB_SLOTS, dtype=np.uint64)
        for i, k in enumerate(keys):
            idx.insert(keys_of(int(k)), keys_of(int(k) * 10), stamp=i)
        result = idx.insert(keys_of(999), keys_of(9990), stamp=100)
        # Key 0 (stamp 0) was the coldest.
        assert result.evicted_values.tolist() == [0]
        found, _, _ = idx.lookup(keys_of(0))
        assert not found[0]

    def test_touch_protects_from_eviction(self):
        idx = SlabHashIndex(SLAB_SLOTS, load_factor=1.0)
        keys = np.arange(SLAB_SLOTS, dtype=np.uint64)
        for i, k in enumerate(keys):
            idx.insert(keys_of(int(k)), keys_of(int(k)), stamp=i)
        idx.lookup(keys_of(0), stamp=50)  # refresh the oldest
        idx.insert(keys_of(777), keys_of(777), stamp=51)
        found, _, _ = idx.lookup(keys_of(0))
        assert found[0]  # key 1 was evicted instead


class TestErase:
    def test_erase_removes(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(1, 2), keys_of(10, 20), stamp=1)
        removed, _ = idx.erase(keys_of(1))
        assert removed[0]
        assert len(idx) == 1
        found, _, _ = idx.lookup(keys_of(1, 2))
        assert found.tolist() == [False, True]

    def test_erase_missing_is_noop(self):
        idx = SlabHashIndex(1000)
        removed, _ = idx.erase(keys_of(42))
        assert not removed[0]

    def test_slot_reusable_after_erase(self):
        idx = SlabHashIndex(SLAB_SLOTS, load_factor=1.0)
        keys = np.arange(SLAB_SLOTS, dtype=np.uint64)
        idx.insert(keys, keys, stamp=1)
        idx.erase(keys_of(3))
        result = idx.insert(keys_of(100), keys_of(100), stamp=2)
        assert len(result.evicted_values) == 0  # reused the vacancy


class TestScan:
    def test_scan_returns_occupied(self):
        idx = SlabHashIndex(1000)
        idx.insert(keys_of(1, 2, 3), keys_of(10, 20, 30), stamp=7)
        keys, values, stamps = idx.scan()
        assert sorted(keys.tolist()) == [1, 2, 3]
        assert (stamps == 7).all()

    def test_scan_empty(self):
        keys, values, stamps = SlabHashIndex(100).scan()
        assert len(keys) == 0


class TestRecency:
    def test_pops_oldest_first_ties_by_slot(self):
        idx = SlabHashIndex(100, recency=True)
        keys = keys_of(*range(1, 9))
        idx.insert(keys[:4], keys[:4] << np.uint64(1), stamp=1)
        idx.insert(keys[4:], keys[4:] << np.uint64(1), stamp=2)
        idx.lookup(keys[:2], stamp=3)
        slots = idx.cold_slots()
        _, _, stamps = idx.slot_entries(slots)
        want = slots[stamps.argsort(kind="stable")]
        assert idx.oldest(0, 5).tolist() == want[:5].tolist()
        assert not len(idx.oldest(1, 5))  # no payload has its low bit set

    def test_clock_may_not_go_back(self):
        idx = SlabHashIndex(100, recency=True)
        idx.insert(keys_of(1), keys_of(2), stamp=5)
        with pytest.raises(SimulationError):
            idx.lookup(keys_of(1), stamp=4)


class TestProbeStats:
    def test_lookup_one_transaction_per_key(self):
        idx = SlabHashIndex(1000)
        _, _, stats = idx.lookup(np.arange(10, dtype=np.uint64))
        assert stats.lookups == 10
        assert stats.transactions == 10

    def test_insert_two_transactions_per_key(self):
        idx = SlabHashIndex(1000)
        result = idx.insert(
            np.arange(10, dtype=np.uint64), np.zeros(10, np.uint64), stamp=1
        )
        assert result.stats.transactions == 20

    def test_merged_with(self):
        from repro.hashindex.slab_hash import ProbeStats

        a = ProbeStats(10, 10, 1.0)
        b = ProbeStats(30, 60, 3.0)
        merged = a.merged_with(b)
        assert merged.lookups == 40
        assert merged.transactions == 70
        assert merged.dependent_hops == pytest.approx(2.5)

    def test_merged_with_empty(self):
        from repro.hashindex.slab_hash import ProbeStats

        assert ProbeStats(0, 0, 0.0).merged_with(ProbeStats(0, 0, 0.0)).lookups == 0
