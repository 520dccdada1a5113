"""Tests for the slab memory pool."""

import numpy as np
import pytest

from repro.errors import CapacityError, SimulationError
from repro.mempool.slab_pool import SlabMemoryPool, unpack_locations


@pytest.fixture()
def pool():
    return SlabMemoryPool({(16, "fp32"): 100, (32, "fp32"): 50})


class TestLocationPacking:
    def test_roundtrip(self):
        loc = (3 << 32) | 12345
        classes, slots = unpack_locations(np.array([loc], np.uint64))
        assert classes[0] == 3
        assert slots[0] == 12345

    def test_vectorised_roundtrip(self):
        locs = np.array(
            [(c << 32) | s for c, s in [(0, 1), (1, 2), (2, 3)]], np.uint64
        )
        classes, slots = unpack_locations(locs)
        assert classes.tolist() == [0, 1, 2]
        assert slots.tolist() == [1, 2, 3]


class TestConstruction:
    def test_needs_classes(self):
        with pytest.raises(SimulationError):
            SlabMemoryPool({})

    def test_rejects_bad_class(self):
        with pytest.raises(SimulationError):
            SlabMemoryPool({(0, "fp32"): 100})
        with pytest.raises(SimulationError):
            SlabMemoryPool({(16, "fp32"): 0})

    def test_total_bytes(self, pool):
        assert pool.total_bytes == 100 * 16 * 4 + 50 * 32 * 4

    def test_dims_sorted(self, pool):
        assert pool.dims() == [16, 32]

    def test_capacity_of(self, pool):
        assert pool.capacity_of(16) == 100
        assert pool.capacity_of(32) == 50


class TestAllocation:
    def test_allocate_and_release(self, pool):
        locs = pool.allocate(16, 10, "fp32")
        assert len(locs) == 10
        assert pool.free_of(16) == 90
        pool.release(locs)
        assert pool.free_of(16) == 100

    def test_allocate_zero(self, pool):
        assert len(pool.allocate(16, 0, "fp32")) == 0

    def test_unknown_dim_rejected(self, pool):
        with pytest.raises(SimulationError):
            pool.allocate(64, 1, "fp32")

    def test_exhaustion_raises(self, pool):
        pool.allocate(32, 50, "fp32")
        with pytest.raises(CapacityError):
            pool.allocate(32, 1, "fp32")

    def test_utilization(self, pool):
        assert pool.utilization == 0.0
        pool.allocate(16, 100, "fp32")
        assert pool.utilization == pytest.approx(100 / 150)

    def test_classes_are_independent(self, pool):
        pool.allocate(16, 100, "fp32")
        pool.allocate(32, 50, "fp32")  # still succeeds

    def test_locations_unique(self, pool):
        a = pool.allocate(16, 50, "fp32")
        b = pool.allocate(16, 50, "fp32")
        all_locs = np.concatenate([a, b])
        assert len(np.unique(all_locs)) == 100


class TestDataPath:
    def test_write_read_roundtrip(self, pool, rng):
        locs = pool.allocate(16, 5, "fp32")
        data = rng.standard_normal((5, 16)).astype(np.float32)
        pool.write(locs, data)
        np.testing.assert_array_equal(pool.read(locs), data)

    def test_read_subset_in_any_order(self, pool, rng):
        locs = pool.allocate(32, 8, "fp32")
        data = rng.standard_normal((8, 32)).astype(np.float32)
        pool.write(locs, data)
        perm = rng.permutation(8)
        np.testing.assert_array_equal(pool.read(locs[perm]), data[perm])

    def test_write_shape_mismatch(self, pool):
        locs = pool.allocate(16, 2, "fp32")
        with pytest.raises(SimulationError):
            pool.write(locs, np.zeros((2, 32), np.float32))

    def test_write_mixed_classes_rejected(self, pool):
        a = pool.allocate(16, 1, "fp32")
        b = pool.allocate(32, 1, "fp32")
        with pytest.raises(SimulationError):
            pool.write(np.concatenate([a, b]), np.zeros((2, 16), np.float32))

    def test_dim_of_locations(self, pool):
        a = pool.allocate(16, 2, "fp32")
        b = pool.allocate(32, 3, "fp32")
        dims = pool.dim_of_locations(np.concatenate([a, b]))
        assert dims.tolist() == [16, 16, 32, 32, 32]

    def test_release_then_reallocate_reuses_slots(self, pool):
        locs = pool.allocate(16, 100, "fp32")  # exhaust
        pool.release(locs[:10])
        again = pool.allocate(16, 10, "fp32")
        assert set(again.tolist()) == set(locs[:10].tolist())

    def test_double_release_detected(self, pool):
        locs = pool.allocate(16, 5, "fp32")
        pool.release(locs)
        with pytest.raises(SimulationError):
            pool.release(locs)
