"""Tests for parameter-update propagation (cache coherence)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.precision import (
    TIERS,
    PrecisionConfig,
    dequantize_rows,
    quantize_rows,
)
from repro.core.unified_index import is_dram_pointer, untag
from repro.core.updates import (
    UpdateApplier,
    UpdateOutcome,
    _last_occurrence_mask,
)
from repro.errors import WorkloadError
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs


@pytest.fixture()
def cache():
    specs = make_table_specs([500, 500], [16, 16])
    c = FlatCache(
        specs,
        FlecheConfig(cache_ratio=0.5, unified_index_fraction=1.0),
    )
    c.set_unified_capacity(50)
    c.tick()
    return c


def _fill(cache, table, ids):
    features = np.asarray(ids, dtype=np.uint64)
    keys = cache.encode(table, features)
    cache.admit_and_insert(
        keys, reference_vectors(table, features, 16), 16
    )
    return keys


class TestUpdateApplier:
    def test_refreshes_cached_entries_in_place(self, cache):
        keys = _fill(cache, 0, [1, 2, 3])
        applier = UpdateApplier(cache)
        new_rows = np.full((3, 16), 7.0, dtype=np.float32)
        outcome = applier.apply(0, np.array([1, 2, 3], np.uint64), new_rows)
        assert outcome.refreshed == 3
        got = cache.gather(cache.index_lookup(keys).locations)
        np.testing.assert_array_equal(got, new_rows)

    def test_untracked_keys_cost_nothing(self, cache):
        applier = UpdateApplier(cache)
        outcome = applier.apply(
            0, np.array([9], np.uint64), np.zeros((1, 16), np.float32)
        )
        assert outcome.refreshed == 0
        assert outcome.untracked == 1

    def test_mixed_batch(self, cache):
        _fill(cache, 0, [1])
        applier = UpdateApplier(cache)
        outcome = applier.apply(
            0, np.array([1, 2], np.uint64), np.ones((2, 16), np.float32)
        )
        assert outcome.refreshed == 1
        assert outcome.untracked == 1
        assert outcome.total == 2

    def test_invalidates_dram_pointers(self, cache):
        features = np.array([10, 11], np.uint64)
        keys = cache.encode(1, features)
        cache.publish_dram_pointers(keys, features)
        applier = UpdateApplier(cache)
        outcome = applier.apply(1, features, np.zeros((2, 16), np.float32))
        assert outcome.pointers_invalidated == 2
        assert not cache.index_lookup(keys).dram_hit.any()

    def test_version_stamp_bumped(self, cache):
        _fill(cache, 0, [5])
        cache.tick()
        cache.tick()
        key = int(cache.encode(0, np.array([5], np.uint64))[0])
        before = cache.index.stamp_of(key)
        UpdateApplier(cache).apply(
            0, np.array([5], np.uint64), np.ones((1, 16), np.float32)
        )
        assert cache.index.stamp_of(key) >= before

    def test_shape_validation(self, cache):
        applier = UpdateApplier(cache)
        with pytest.raises(WorkloadError):
            applier.apply(0, np.array([1], np.uint64),
                          np.zeros((2, 16), np.float32))
        with pytest.raises(WorkloadError):
            applier.apply(0, np.array([1], np.uint64),
                          np.zeros((1, 8), np.float32))

    def test_duplicate_ids_last_write_wins(self, cache):
        keys = _fill(cache, 0, [4])
        applier = UpdateApplier(cache)
        rows = np.stack([
            np.full(16, 1.0, np.float32), np.full(16, 2.0, np.float32),
        ])
        outcome = applier.apply(0, np.array([4, 4], np.uint64), rows)
        assert outcome.duplicates == 1
        assert outcome.refreshed == 1
        got = cache.gather(cache.index_lookup(keys).locations)
        np.testing.assert_array_equal(got, rows[1:])

    def test_outcome_partitions_the_batch(self, cache):
        _fill(cache, 1, [1])
        cache.publish_dram_pointers(
            cache.encode(1, np.array([2], np.uint64)),
            np.array([2], np.uint64),
        )
        applier = UpdateApplier(cache)
        features = np.array([1, 2, 3, 3], np.uint64)
        outcome = applier.apply(1, features, np.zeros((4, 16), np.float32))
        assert (
            outcome.refreshed + outcome.pointers_invalidated
            + outcome.pointers_skipped + outcome.untracked
            + outcome.duplicates
        ) == len(features)

    def test_subsequent_queries_serve_fresh_values(self, cache):
        """Coherence end to end: after an update, hits return new rows."""
        features = np.arange(10, dtype=np.uint64)
        keys = _fill(cache, 0, features)
        fresh = np.tile(
            np.arange(16, dtype=np.float32) * -1.0, (10, 1)
        )
        UpdateApplier(cache).apply(0, features, fresh)
        outcome = cache.index_lookup(keys)
        assert outcome.cache_hit.all()
        np.testing.assert_array_equal(
            cache.gather(outcome.locations), fresh
        )


# ---------------------------------------------------------------------------
# Fused multi-delta apply == one apply per table, in table order
# ---------------------------------------------------------------------------

FUSE_DIMS = (8, 8, 16, 8)
FUSE_CORPUS = 48


def _reference_apply(applier, table_id, feature_ids, vectors):
    """The per-table refresh as it was before deltas were fused: its own
    dedup, index lookup, pool write, re-stamp and pointer erase."""
    cache = applier.cache
    total = len(feature_ids)
    duplicates = 0
    if total:
        keep = _last_occurrence_mask(feature_ids)
        duplicates = int(total - keep.sum())
        feature_ids, vectors = feature_ids[keep], vectors[keep]
    keys = cache.encode(table_id, feature_ids)
    found, pointers, _ = cache.index.lookup(keys)
    dram = found & is_dram_pointer(pointers)
    cached = found & ~dram
    refreshed = int(cached.sum())
    if refreshed:
        cache.pool.write(untag(pointers[cached]), vectors[cached])
        cache.index.lookup(keys[cached], stamp=cache._clock)
    invalidated = 0
    if dram.any():
        invalidated = cache.invalidate_dram_pointers(keys[dram])
    return UpdateOutcome(
        refreshed=refreshed,
        pointers_invalidated=invalidated,
        untracked=len(keys) - refreshed - int(dram.sum()),
        duplicates=duplicates,
        pointers_skipped=int(dram.sum()) - invalidated,
    )


def _fuse_cache(cached_ids, pointer_ids):
    """Mixed-dimension cache holding ``cached_ids`` as embeddings and
    ``pointer_ids`` as unified-index DRAM pointers, per table."""
    specs = make_table_specs([FUSE_CORPUS] * len(FUSE_DIMS), list(FUSE_DIMS))
    cache = FlatCache(
        specs, FlecheConfig(cache_ratio=0.9, unified_index_fraction=1.0)
    )
    cache.set_unified_capacity(200)
    cache.tick()
    for table, (dim, ids) in enumerate(zip(FUSE_DIMS, cached_ids)):
        features = np.array(sorted(ids), dtype=np.uint64)
        cache.admit_and_insert(
            cache.encode(table, features),
            reference_vectors(table, features, dim), dim,
        )
    for table, ids in enumerate(pointer_ids):
        features = np.array(sorted(ids), dtype=np.uint64)
        cache.publish_dram_pointers(cache.encode(table, features), features)
    cache.tick()
    cache.tick()
    return cache


_id_sets = st.lists(
    st.sets(st.integers(0, FUSE_CORPUS - 1), max_size=12),
    min_size=len(FUSE_DIMS), max_size=len(FUSE_DIMS),
)


@settings(max_examples=60, deadline=None)
@given(
    cached_ids=_id_sets,
    pointer_ids=_id_sets,
    # Each delta: ids with repeats, hitting cached / pointer / unknown keys.
    delta_ids=st.lists(
        st.lists(st.integers(0, FUSE_CORPUS - 1), max_size=20),
        min_size=len(FUSE_DIMS), max_size=len(FUSE_DIMS),
    ),
    tables=st.sets(st.integers(0, len(FUSE_DIMS) - 1), min_size=1),
)
def test_fused_apply_equals_per_table_apply(
    cached_ids, pointer_ids, delta_ids, tables
):
    fused_cache = _fuse_cache(cached_ids, pointer_ids)
    seq_cache = copy.deepcopy(fused_cache)
    rng = np.random.default_rng(7)
    deltas = []
    for table in sorted(tables):
        ids = np.array(delta_ids[table], dtype=np.uint64)
        rows = rng.random((len(ids), FUSE_DIMS[table]), dtype=np.float32)
        deltas.append((table, ids, rows))

    before = fused_cache.obs.snapshot()
    fused = UpdateApplier(fused_cache).apply_deltas(deltas)
    reference = UpdateApplier(seq_cache)
    parts = [_reference_apply(reference, *delta) for delta in deltas]

    for field in ("refreshed", "pointers_invalidated", "pointers_skipped",
                  "untracked", "duplicates"):
        assert getattr(fused, field) == sum(getattr(p, field) for p in parts)
    assert fused.total == sum(len(ids) for _, ids, _ in deltas)
    for column in ("_keys", "_values", "_stamps"):
        np.testing.assert_array_equal(
            getattr(fused_cache.index, column),
            getattr(seq_cache.index, column),
        )
    assert len(fused_cache.index) == len(seq_cache.index)
    assert fused_cache.unified_entries == seq_cache.unified_entries
    keys, values, _ = fused_cache.index.scan()
    for dim in set(FUSE_DIMS):
        # Every cached row, key by key, in both pools.
        live = untag(values[~is_dram_pointer(values)])
        live = live[fused_cache.pool.dim_of_locations(live) == dim]
        np.testing.assert_array_equal(
            fused_cache.pool.read(live), seq_cache.pool.read(live)
        )
    assert (
        fused_cache.obs.snapshot().diff(before).to_dict()
        == seq_cache.obs.snapshot().diff(before).to_dict()
    )


def test_single_delta_apply_is_the_fused_function(cache):
    """``apply`` is ``apply_deltas`` over one delta, not a second path."""
    _fill(cache, 0, [1, 2])
    twin = copy.deepcopy(cache)
    ids = np.array([1, 2, 9, 2], np.uint64)
    rows = np.arange(64, dtype=np.float32).reshape(4, 16)
    one = UpdateApplier(cache).apply(0, ids, rows)
    many = UpdateApplier(twin).apply_deltas([(0, ids, rows)])
    assert one == many
    np.testing.assert_array_equal(cache.index._stamps, twin.index._stamps)


def test_fused_apply_rejects_two_deltas_for_one_table(cache):
    delta = (0, np.array([1], np.uint64), np.zeros((1, 16), np.float32))
    with pytest.raises(WorkloadError):
        UpdateApplier(cache).apply_deltas([delta, delta])


def test_fused_apply_is_all_or_nothing_on_malformed_deltas(cache):
    """A bad delta anywhere in the batch leaves the cache untouched."""
    keys = _fill(cache, 0, [1])
    good = (0, np.array([1], np.uint64), np.full((1, 16), 9.0, np.float32))
    bad = (1, np.array([1], np.uint64), np.zeros((1, 8), np.float32))
    with pytest.raises(WorkloadError):
        UpdateApplier(cache).apply_deltas([good, bad])
    np.testing.assert_array_equal(
        cache.gather(cache.index_lookup(keys).locations),
        reference_vectors(0, np.array([1], np.uint64), 16),
    )


def test_refresh_spans_precision_tiers_of_one_dimension():
    """One delta's cached keys may sit in several tiers' slab classes:
    the single pool write re-quantizes each row at its entry's tier."""
    specs = make_table_specs([500], [16])
    cache = FlatCache(specs, FlecheConfig(
        cache_ratio=0.5,
        precision=PrecisionConfig(
            fp32_share=0.25, fp16_share=0.25, int8_share=0.5
        ),
    ))
    cache.set_tier_thresholds(3, 2)
    cache.tick()
    ids = np.arange(40, dtype=np.uint64)
    keys = cache.encode(0, ids)
    for _ in range(4):
        cache.observe_keys(keys[:10])  # a hot head, a cold tail
    cache.admit_and_insert(keys, reference_vectors(0, ids, 16), 16)
    hit = cache.index_lookup(keys)
    tiers = cache.pool.tier_codes_of_locations(hit.locations[hit.cache_hit])
    assert len(np.unique(tiers)) > 1

    fresh = np.linspace(-0.4, 0.4, 40 * 16, dtype=np.float32).reshape(40, 16)
    outcome = UpdateApplier(cache).apply(0, ids, fresh)
    assert outcome.refreshed == int(hit.cache_hit.sum())
    got = cache.gather(hit.locations[hit.cache_hit])
    for code, tier in enumerate(TIERS):
        rows = fresh[hit.cache_hit][tiers == code]
        np.testing.assert_array_equal(
            got[tiers == code],
            dequantize_rows(*quantize_rows(rows, tier), tier),
        )
