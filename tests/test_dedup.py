"""Tests for deduplicating & restoring (paper §4)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


uint64s = st.integers(min_value=0, max_value=2**64 - 1)
key_arrays = st.one_of(
    st.lists(uint64s, max_size=80),                      # random
    st.just([]),                                         # empty
    st.tuples(uint64s, st.integers(1, 60)).map(          # all equal
        lambda pair: [pair[0]] * pair[1]
    ),
    st.lists(uint64s, max_size=80).map(sorted),          # already sorted
    st.lists(st.integers(0, 5), max_size=80),            # tie-heavy
).map(lambda keys: np.array(keys, dtype=np.uint64))


@settings(max_examples=200, deadline=None)
@given(keys=key_arrays)
def test_deduplicate_equals_np_unique(keys):
    """One stable sort gives what ``np.unique`` gives, first index
    included."""
    unique, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    result = deduplicate(keys)
    for got, want in zip(result, (unique, first, inverse)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


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
