"""Tests for traces and trace batches."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.trace import Trace, TraceBatch


def batch(ids_lists, batch_size=4):
    return TraceBatch(
        ids_per_table=[np.array(ids, np.uint64) for ids in ids_lists],
        batch_size=batch_size,
    )


class TestTraceBatch:
    def test_counts(self):
        b = batch([[1, 2, 3, 4], [5, 6, 7, 8]])
        assert b.num_tables == 2
        assert b.total_ids == 8

    def test_flattened(self):
        b = batch([[1, 2], [3, 4]], batch_size=2)
        tables, features = b.flattened()
        assert tables.tolist() == [0, 0, 1, 1]
        assert features.tolist() == [1, 2, 3, 4]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(WorkloadError):
            batch([[1]], batch_size=0)

    def test_rejects_multidim_ids(self):
        with pytest.raises(WorkloadError):
            TraceBatch(
                ids_per_table=[np.zeros((2, 2), np.uint64)], batch_size=2
            )


class TestTrace:
    def test_iteration(self):
        t = Trace([batch([[1], [2]]), batch([[3], [4]])])
        assert len(t) == 2
        assert t[1].ids_per_table[0][0] == 3
        assert sum(1 for _ in t) == 2

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            Trace([])

    def test_rejects_inconsistent_tables(self):
        with pytest.raises(WorkloadError):
            Trace([batch([[1]]), batch([[1], [2]])])

    def test_total_ids(self):
        t = Trace([batch([[1, 2], [3, 4]]), batch([[5], [6]])])
        assert t.total_ids == 6

    def test_split(self):
        t = Trace([batch([[i]]) for i in range(10)])
        warm, measure = t.split(4)
        assert len(warm) == 4
        assert len(measure) == 6

    def test_split_bounds(self):
        t = Trace([batch([[1]]), batch([[2]])])
        with pytest.raises(WorkloadError):
            t.split(0)
        with pytest.raises(WorkloadError):
            t.split(2)
