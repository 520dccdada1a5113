"""Tests for deduplicating & restoring (paper §4)."""

import numpy as np

from repro.core.dedup import (
    deduplicate,
    dedup_kernel_spec,
    restore,
    restore_kernel_spec,
)


class TestDeduplicate:
    def test_collapses_duplicates(self):
        keys = np.array([5, 3, 5, 5, 7, 3], np.uint64)
        result = deduplicate(keys)
        assert sorted(result.unique_keys.tolist()) == [3, 5, 7]

    def test_inverse_restores_original(self):
        keys = np.array([5, 3, 5, 5, 7, 3], np.uint64)
        result = deduplicate(keys)
        np.testing.assert_array_equal(
            result.unique_keys[result.inverse], keys
        )

    def test_empty(self):
        result = deduplicate(np.zeros(0, np.uint64))
        assert len(result.unique_keys) == 0


class TestRestore:
    def test_expands_rows(self):
        unique_rows = np.array([[1.0, 1.0], [2.0, 2.0]], np.float32)
        inverse = np.array([1, 0, 1, 1])
        out = restore(unique_rows, inverse)
        np.testing.assert_array_equal(out[:, 0], [2.0, 1.0, 2.0, 2.0])

    def test_roundtrip_with_dedup(self, rng):
        keys = rng.integers(0, 50, size=200).astype(np.uint64)
        result = deduplicate(keys)
        rows = rng.standard_normal((len(result.unique_keys), 4)).astype(np.float32)
        full = restore(rows, result.inverse)
        # Every position got the row of its key.
        for i, k in enumerate(keys):
            j = np.searchsorted(result.unique_keys, k)
            np.testing.assert_array_equal(full[i], rows[j])


class TestKernelSpecs:
    def test_dedup_kernel_scales_with_keys(self):
        small = dedup_kernel_spec(1000)
        large = dedup_kernel_spec(10_000)
        assert large.stream_bytes == 10 * small.stream_bytes

    def test_restore_kernel_counts_coalesced_rows(self):
        spec16 = restore_kernel_spec(100, dim=16)
        spec32 = restore_kernel_spec(100, dim=32)
        # Coalescing: 16- and 32-dim rows cost the same transactions.
        assert spec16.stream_bytes == spec32.stream_bytes

    def test_zero_rows_safe(self):
        assert dedup_kernel_spec(0).threads >= 1
        assert restore_kernel_spec(0, 32).threads >= 1
