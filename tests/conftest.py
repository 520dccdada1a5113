"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import default_platform, Executor, EmbeddingStore
from repro.tables.store import pack_global_key, unpack_global_key
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs
from repro.workloads.synthetic import synthetic_dataset, uniform_tables_spec


def query_table(store, table_id, ids):
    """One table's ``ids`` through the store's batched ``query_many``."""
    return store.query_many(np.full(len(ids), table_id), ids)


def dram_resident(layer, table_id, feature_id):
    """Whether one (table, id) is currently cached in a
    ``DramCacheLayer``."""
    return pack_global_key(table_id, int(feature_id)) in layer._slots


def dram_pass(layer, table_ids, feature_ids, cacheable=lambda table: True):
    """Drive a ``DramCacheLayer`` over one mixed-table batch the way the
    tiered store does, with reference rows for every miss.

    ``cacheable(table)`` is the admission outcome of each table's fetch.
    Returns ``(vectors in batch order, the DramPass, [(table, missed
    keys) per fetch])``.
    """
    table_ids = np.asarray(table_ids)
    feature_ids = np.asarray(feature_ids, dtype=np.uint64)
    order = np.argsort(table_ids, kind="stable")
    tables = table_ids[order].astype(np.uint64)
    keys = pack_global_key(tables, feature_ids[order])
    segments = [
        (int(t), int(np.searchsorted(tables, t)),
         int(np.searchsorted(tables, t, side="right")))
        for t in np.unique(tables)
    ]
    fetches = []

    def admit(table_id, missed):
        fetches.append((table_id, list(missed)))
        return cacheable(table_id)

    found = layer.lookup(segments, keys, admit)
    dim = layer.specs[segments[0][0]].dim
    missed = np.array(found.missed, dtype=np.uint64)
    rows = reference_vectors(*unpack_global_key(missed), dim)
    layer.fill(found, rows)
    out = np.empty((len(keys), dim), dtype=np.float32)
    out[found.hit_positions] = found.hit_rows
    out[found.miss_positions] = rows[
        np.searchsorted(missed, keys[found.miss_positions])
    ]
    vectors = np.empty_like(out)
    vectors[order] = out
    return vectors, found, fetches


@pytest.fixture(scope="session")
def hw():
    """The paper's testbed platform (immutable, shared across tests)."""
    return default_platform()


@pytest.fixture()
def executor(hw):
    return Executor(hw)


@pytest.fixture(scope="session")
def small_dataset():
    """A small 6-table synthetic dataset reused by integration tests."""
    return uniform_tables_spec(
        num_tables=6, corpus_size=2_000, alpha=-1.2, dim=16, num_samples=50_000
    )


@pytest.fixture(scope="session")
def small_trace(small_dataset):
    return synthetic_dataset(small_dataset, num_batches=12, batch_size=64)


@pytest.fixture()
def small_store(small_dataset, hw):
    return EmbeddingStore(small_dataset.table_specs(), hw)


@pytest.fixture()
def mixed_dim_specs():
    """Tables with two embedding dimensions (16 and 32)."""
    return make_table_specs([500, 800, 1200, 300], [16, 16, 32, 32])


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
