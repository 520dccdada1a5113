"""Tests for dataset specs, synthetic generation and replicas."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.datasets import (
    DATASET_REPLICAS,
    PAPER_CACHE_RATIOS,
    avazu_replica,
    criteo_kaggle_replica,
    criteo_tb_replica,
)
from repro.workloads.spec import DatasetSpec, FieldSpec
from repro.workloads.synthetic import synthetic_dataset, uniform_tables_spec


class TestFieldSpec:
    def test_valid(self):
        FieldSpec(corpus_size=100, alpha=-1.2, drift=0.1)

    def test_rejects_bad_values(self):
        with pytest.raises(WorkloadError):
            FieldSpec(corpus_size=0)
        with pytest.raises(WorkloadError):
            FieldSpec(corpus_size=10, alpha=0.1)
        with pytest.raises(WorkloadError):
            FieldSpec(corpus_size=10, drift=1.5)


class TestDatasetSpec:
    def test_derived_quantities(self):
        spec = DatasetSpec(
            name="x",
            fields=(FieldSpec(100), FieldSpec(200)),
            num_samples=1000,
            dim=8,
        )
        assert spec.num_tables == 2
        assert spec.total_sparse_ids == 300
        assert spec.param_bytes == 300 * 32

    def test_table_specs(self):
        spec = uniform_tables_spec(num_tables=3, corpus_size=10, dim=4)
        specs = spec.table_specs()
        assert [s.table_id for s in specs] == [0, 1, 2]
        assert all(s.dim == 4 for s in specs)


class TestSyntheticDataset:
    def test_shape(self):
        spec = uniform_tables_spec(num_tables=4, corpus_size=100)
        trace = synthetic_dataset(spec, num_batches=5, batch_size=16)
        assert len(trace) == 5
        assert trace.num_tables == 4
        assert all(len(b.ids_per_table[0]) == 16 for b in trace)

    def test_ids_within_corpus(self):
        spec = uniform_tables_spec(num_tables=2, corpus_size=50)
        trace = synthetic_dataset(spec, num_batches=3, batch_size=64)
        for b in trace:
            for ids in b.ids_per_table:
                assert (ids < 50).all()

    def test_deterministic_for_seed(self):
        spec = uniform_tables_spec(num_tables=2, corpus_size=100, seed=5)
        a = synthetic_dataset(spec, 3, 8)
        b = synthetic_dataset(spec, 3, 8)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.ids_per_table[0], bb.ids_per_table[0])

    def test_multi_hot(self):
        spec = uniform_tables_spec(num_tables=2, corpus_size=100)
        spec = DatasetSpec(
            name="mh", fields=spec.fields, num_samples=100, dim=8,
            ids_per_field=3,
        )
        trace = synthetic_dataset(spec, 2, 10)
        assert len(trace[0].ids_per_table[0]) == 30

    def test_rejects_bad_counts(self):
        spec = uniform_tables_spec()
        with pytest.raises(WorkloadError):
            synthetic_dataset(spec, 0, 4)

    def test_drift_changes_hot_set(self):
        fields = (FieldSpec(corpus_size=1000, alpha=-2.0, drift=0.5),)
        spec = DatasetSpec(name="d", fields=fields, num_samples=10, dim=4, seed=3)
        trace = synthetic_dataset(spec, num_batches=64, batch_size=256,
                                  drift_every=8)
        early = set(np.unique(trace[0].ids_per_table[0]).tolist())
        late = set(np.unique(trace[63].ids_per_table[0]).tolist())
        assert early != late


class TestReplicas:
    def test_table_counts_match_table2(self):
        assert avazu_replica(scale=0.01).num_tables == 22
        assert criteo_kaggle_replica(scale=0.01).num_tables == 26
        assert criteo_tb_replica(scale=0.01).num_tables == 26

    def test_dims_match_paper(self):
        assert avazu_replica(scale=0.01).dim == 32
        assert criteo_kaggle_replica(scale=0.01).dim == 32
        assert criteo_tb_replica(scale=0.01).dim == 128

    def test_heterogeneous_corpora(self):
        ds = criteo_kaggle_replica(scale=0.1)
        sizes = [f.corpus_size for f in ds.fields]
        assert max(sizes) / max(min(sizes), 1) > 100

    def test_registry_and_ratios(self):
        assert set(DATASET_REPLICAS) == set(PAPER_CACHE_RATIOS)
        assert PAPER_CACHE_RATIOS["criteo-tb"] == (0.02, 0.01, 0.005)

    def test_scale_shrinks_corpora(self):
        big = avazu_replica(scale=1.0).total_sparse_ids
        small = avazu_replica(scale=0.1).total_sparse_ids
        assert small < big
