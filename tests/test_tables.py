"""Tests for table specs, embedding tables, and the host store."""

import copy
import gc

import numpy as np
import pytest

from repro.errors import ConfigError, WorkloadError
from repro.tables import embedding_table
from repro.tables.embedding_table import EmbeddingTable, reference_vectors
from repro.tables.store import EmbeddingStore
from repro.tables.table_spec import TableSpec, make_table_specs, total_param_bytes

from conftest import query_table


class TestTableSpec:
    def test_value_and_param_bytes(self):
        spec = TableSpec(0, corpus_size=1000, dim=32)
        assert spec.value_bytes == 128
        assert spec.param_bytes == 128_000

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TableSpec(0, corpus_size=0, dim=32)
        with pytest.raises(ConfigError):
            TableSpec(0, corpus_size=10, dim=0)

    def test_make_table_specs(self):
        specs = make_table_specs([10, 20], [8, 16])
        assert [s.table_id for s in specs] == [0, 1]
        assert specs[1].dim == 16

    def test_make_table_specs_length_mismatch(self):
        with pytest.raises(ConfigError):
            make_table_specs([10], [8, 16])

    def test_total_param_bytes(self):
        specs = make_table_specs([10, 20], [8, 8])
        assert total_param_bytes(specs) == (10 + 20) * 32


class TestReferenceVectors:
    def test_deterministic(self):
        a = reference_vectors(3, np.array([7, 8], np.uint64), 16)
        b = reference_vectors(3, np.array([7, 8], np.uint64), 16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_tables(self):
        ids = np.array([5], np.uint64)
        a = reference_vectors(0, ids, 16)
        b = reference_vectors(1, ids, 16)
        assert not np.allclose(a, b)

    def test_distinct_across_ids(self):
        a = reference_vectors(0, np.array([5], np.uint64), 16)
        b = reference_vectors(0, np.array([6], np.uint64), 16)
        assert not np.allclose(a, b)

    def test_bounded_values(self):
        v = reference_vectors(2, np.arange(100, dtype=np.uint64), 32)
        assert (v >= -0.5).all() and (v < 0.5).all()

    def test_table_per_id_matches_one_table_per_call(self):
        tables = np.array([1, 0, 1], np.uint64)
        ids = np.array([4, 4, 9], np.uint64)
        rows = reference_vectors(tables, ids, 16)
        for i, (t, f) in enumerate(zip(tables, ids)):
            np.testing.assert_array_equal(
                rows[i], reference_vectors(int(t), np.array([f]), 16)[0]
            )


class TestEmbeddingTable:
    def test_lookup_matches_reference(self):
        table = EmbeddingTable(TableSpec(2, corpus_size=100, dim=8))
        ids = np.array([3, 50, 3], dtype=np.uint64)
        got = table.lookup(ids)
        expect = reference_vectors(2, ids, 8)
        np.testing.assert_array_equal(got, expect)

    def test_lazy_materialisation(self):
        # A spec no other test uses: len() counts the spec's shared bank.
        table = EmbeddingTable(TableSpec(0, corpus_size=1009, dim=4))
        assert len(table) == 0
        table.lookup(np.array([1, 2, 3], np.uint64))
        assert len(table) == 3

    def test_repeated_lookup_is_stable(self):
        table = EmbeddingTable(TableSpec(0, corpus_size=100, dim=4))
        ids = np.array([7], np.uint64)
        first = table.lookup(ids).copy()
        table.lookup(np.arange(50, dtype=np.uint64))  # growth happens
        np.testing.assert_array_equal(table.lookup(ids), first)

    def test_out_of_corpus_rejected(self):
        table = EmbeddingTable(TableSpec(0, corpus_size=10, dim=4))
        with pytest.raises(WorkloadError):
            table.lookup(np.array([10], np.uint64))

    def test_empty_lookup(self):
        table = EmbeddingTable(TableSpec(0, corpus_size=10, dim=4))
        assert table.lookup(np.zeros(0, np.uint64)).shape == (0, 4)


class TestEmbeddingStore:
    def test_param_bytes(self, hw, mixed_dim_specs):
        store = EmbeddingStore(mixed_dim_specs, hw)
        assert store.param_bytes == sum(s.param_bytes for s in mixed_dim_specs)

    def test_query_returns_vectors_and_cost(self, hw, mixed_dim_specs):
        store = EmbeddingStore(mixed_dim_specs, hw)
        result = query_table(store, 0, np.array([1, 2], np.uint64))
        assert result.vectors.shape == (2, 16)
        assert result.cost.total > 0
        assert store.fault_windows() == []  # it holds every row

    def test_unified_index_fraction_reduces_index_time(self, hw, mixed_dim_specs):
        store = EmbeddingStore(mixed_dim_specs, hw)
        tables = np.zeros(100, dtype=np.int64)
        ids = np.arange(100, dtype=np.uint64)
        full = store.query_many(tables, ids)
        half = store.query_many(tables, ids, indexed_mask=ids % 2 == 0)
        assert half.cost.index_time == pytest.approx(0.5 * full.cost.index_time, rel=0.05)
        assert half.cost.copy_time == pytest.approx(full.cost.copy_time)

    def test_query_many_mixed_tables(self, hw, mixed_dim_specs):
        store = EmbeddingStore(mixed_dim_specs, hw)
        tables = np.array([0, 1, 0])
        features = np.array([5, 6, 7], np.uint64)
        result = store.query_many(tables, features)
        assert result.vectors.shape == (3, 16)
        expect0 = reference_vectors(0, np.array([5, 7], np.uint64), 16)
        np.testing.assert_array_equal(result.vectors[[0, 2]], expect0)
        # Plain lists are accepted and read alike.
        np.testing.assert_array_equal(
            store.query_many([0, 1, 0], [5, 6, 7]).vectors, result.vectors
        )

    def test_query_many_rejects_mixed_dims(self, hw, mixed_dim_specs):
        store = EmbeddingStore(mixed_dim_specs, hw)
        with pytest.raises(WorkloadError):
            store.query_many(np.array([0, 2]), np.array([1, 1], np.uint64))
        with pytest.raises(WorkloadError, match="shape"):
            store.query_many(np.array([0, 1]), np.array([1], np.uint64))

    def test_query_many_indexed_mask(self, hw, mixed_dim_specs):
        store = EmbeddingStore(mixed_dim_specs, hw)
        tables = np.zeros(10, dtype=np.int64)
        features = np.arange(10, dtype=np.uint64)
        all_indexed = store.query_many(tables, features, indexed_mask=np.ones(10, bool))
        none_indexed = store.query_many(tables, features, indexed_mask=np.zeros(10, bool))
        assert all_indexed.cost.index_time == 0.0
        assert none_indexed.cost.index_time > 0.0

    def test_dense_numbering_enforced(self, hw):
        bad = [TableSpec(1, 10, 4)]
        with pytest.raises(WorkloadError):
            EmbeddingStore(bad, hw)
        with pytest.raises(WorkloadError, match="at least one table"):
            EmbeddingStore([], hw)

    def test_query_many_rejects_out_of_corpus_ids(self, hw, mixed_dim_specs):
        store = EmbeddingStore(mixed_dim_specs, hw)
        for beyond in (500, 2**64 - 1):  # the latter would wrap to row -1
            with pytest.raises(WorkloadError):
                store.query_many(
                    np.array([1, 0]), np.array([3, beyond], np.uint64)
                )


class TestSharedRowBank:
    """Tables over one (table, corpus, dim) read one row bank.

    Every spec here is unique to its test, so no bank left by another
    test can be picked up.
    """

    def test_equal_stores_share_rows_whatever_the_touch_order(self, hw):
        specs = make_table_specs([211, 223], [8, 8])
        first = EmbeddingStore(specs, hw)
        second = EmbeddingStore(specs, hw)
        tables = np.array([0, 1, 0, 1, 1])
        ids = np.array([7, 9, 200, 3, 9], np.uint64)
        a = first.query_many(tables, ids).vectors
        second.query_many(  # other order first
            np.array([1, 1]), np.array([100, 9], np.uint64)
        )
        b = second.query_many(tables[::-1], ids[::-1]).vectors[::-1]
        np.testing.assert_array_equal(a, b)
        for t in (0, 1):
            np.testing.assert_array_equal(
                a[tables == t], reference_vectors(t, ids[tables == t], 8)
            )
        assert first.table(0)._bank is second.table(0)._bank

    def test_later_table_inherits_generated_rows(self, monkeypatch):
        spec = TableSpec(0, corpus_size=227, dim=4)
        ids = np.array([5, 1, 5, 90], np.uint64)
        warm = EmbeddingTable(spec)
        expect = warm.lookup(ids)
        calls = []
        real = embedding_table.reference_vectors
        monkeypatch.setattr(
            embedding_table, "reference_vectors",
            lambda *args: calls.append(args) or real(*args),
        )
        replica = EmbeddingTable(spec)
        assert len(replica) == 3
        np.testing.assert_array_equal(replica.lookup(ids), expect)
        assert calls == []  # nothing regenerated
        replica.lookup(np.array([6], np.uint64))
        assert len(calls) == 1 and len(warm) == 4

    def test_update_never_reaches_another_table(self):
        spec = TableSpec(0, corpus_size=229, dim=8)
        ids = np.array([4, 8], np.uint64)
        updated = EmbeddingTable(spec)
        reader = EmbeddingTable(spec)
        pristine = reader.lookup(ids).copy()
        new_rows = np.full((2, 8), 0.25, dtype=np.float32)
        assert updated.update_rows(ids, new_rows) == 2
        assert updated._bank is reader._bank  # the write went to the overlay
        np.testing.assert_array_equal(updated.lookup(ids), new_rows)
        np.testing.assert_array_equal(reader.lookup(ids), pristine)
        # A write to an id nobody read generates no bank row.
        updated.update_rows(np.array([100], np.uint64), new_rows[:1])
        assert len(reader) == 2
        np.testing.assert_array_equal(
            EmbeddingTable(spec).lookup(np.array([100], np.uint64)),
            reference_vectors(0, np.array([100], np.uint64), 8),
        )
        np.testing.assert_array_equal(
            updated.lookup(np.array([100, 4, 5], np.uint64)),
            np.vstack([new_rows[:2], reference_vectors(0, [5], 8)]),
        )

    def test_overlay_keeps_each_ids_last_row(self):
        spec = TableSpec(0, corpus_size=241, dim=4)
        table = EmbeddingTable(spec)
        rows = np.arange(20, dtype=np.float32).reshape(5, 4)
        # Unsorted, with a repeat: the later row of id 9 wins.
        table.update_rows(np.array([9, 2, 9, 30, 7], np.uint64), rows)
        # Overwrites one written id and merges two new ones around it.
        table.update_rows(np.array([1, 7, 200], np.uint64), -rows[:3])
        ids = np.array([1, 2, 3, 7, 9, 30, 200, 240], np.uint64)
        want = np.vstack([
            -rows[0], rows[1], reference_vectors(0, [3], 4)[0], -rows[1],
            rows[2], rows[3], -rows[2], reference_vectors(0, [240], 4)[0],
        ])
        np.testing.assert_array_equal(table.lookup(ids), want)
        np.testing.assert_array_equal(table.lookup(ids[::-1]), want[::-1])
        written_ids, written_rows = table.written()
        np.testing.assert_array_equal(written_ids, [1, 2, 7, 9, 30, 200])
        np.testing.assert_array_equal(written_rows, table.lookup(written_ids))

    @pytest.mark.parametrize("seed", range(4))
    def test_overlay_equals_a_last_write_wins_map(self, seed):
        rng = np.random.default_rng(seed)
        spec = TableSpec(1, corpus_size=97, dim=3)
        table = EmbeddingTable(spec)
        model = {}
        for step in range(40):
            ids = rng.integers(0, 97, size=rng.integers(0, 12)).astype(np.uint64)
            if step % 3 == 0:
                ids.sort()
            rows = rng.standard_normal((len(ids), 3)).astype(np.float32)
            assert table.update_rows(ids, rows) == len(ids)
            model.update(zip(ids.tolist(), rows))
        probe = np.arange(97, dtype=np.uint64)
        want = reference_vectors(1, probe, 3)
        for key, row in model.items():
            want[key] = row
        np.testing.assert_array_equal(table.lookup(probe), want)
        ids, rows = table.written()
        np.testing.assert_array_equal(ids, sorted(model))
        np.testing.assert_array_equal(rows, want[ids.astype(np.int64)])

    def test_copies_share_reference_rows_but_not_updates(self):
        spec = TableSpec(0, corpus_size=233, dim=4)
        table = EmbeddingTable(spec)
        table.lookup(np.array([1], np.uint64))
        clone = copy.deepcopy(table)
        assert clone._bank is table._bank
        table.update_rows(np.array([1], np.uint64), np.ones((1, 4), np.float32))
        copied = copy.deepcopy(table)
        assert copied._bank is table._bank
        copied.update_rows(np.array([1], np.uint64), np.zeros((1, 4), np.float32))
        np.testing.assert_array_equal(
            table.lookup(np.array([1], np.uint64)), np.ones((1, 4), np.float32)
        )
        np.testing.assert_array_equal(
            copied.lookup(np.array([1], np.uint64)), np.zeros((1, 4), np.float32)
        )
        np.testing.assert_array_equal(
            clone.lookup(np.array([1], np.uint64)),
            reference_vectors(0, np.array([1], np.uint64), 4),
        )

    def test_bank_lives_exactly_as_long_as_a_table_reads_it(self):
        spec = TableSpec(0, corpus_size=239, dim=4)
        key = (0, 239, 4)
        first = EmbeddingTable(spec)
        second = EmbeddingTable(spec)
        first.lookup(np.array([3], np.uint64))
        second.update_rows(np.array([3], np.uint64), np.zeros((1, 4), np.float32))
        del first
        gc.collect()
        assert len(second) == 1  # a writer still reads the bank
        assert key in embedding_table._SHARED_BANKS
        del second
        gc.collect()
        assert key not in embedding_table._SHARED_BANKS
        assert len(EmbeddingTable(spec)) == 0
