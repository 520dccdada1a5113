"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import default_platform, Executor, EmbeddingStore
from repro.tables.table_spec import make_table_specs
from repro.workloads.synthetic import synthetic_dataset, uniform_tables_spec


def query_table(store, table_id, ids):
    """One table's ``ids`` through the store's batched ``query_many``."""
    return store.query_many(np.full(len(ids), table_id), ids)


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
