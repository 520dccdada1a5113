"""Unit tests for the shared Zipf-head helper (``workloads.zipf_head_ids``).

The helper is the single home of the ``seed * 31 + field_index`` serving
seeding convention that ``cluster.hot_head_victim`` and
``ClusterReplica.warm_hot_keys`` share; these tests pin bit-equality with
the direct sampler construction so neither call site drifted.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import FieldSpec, ZipfSampler, uniform_tables_spec, zipf_head_ids


def test_matches_direct_sampler_construction():
    fields = [FieldSpec(corpus_size=500), FieldSpec(corpus_size=900, alpha=-1.05)]
    heads = zipf_head_ids(fields, seed=7, count=32)
    assert len(heads) == len(fields)
    for i, f in enumerate(fields):
        expected = ZipfSampler(f.corpus_size, f.alpha, seed=7 * 31 + i).hottest_ids(32)
        assert heads[i].dtype == np.uint64
        np.testing.assert_array_equal(heads[i], expected)


def test_matches_arrival_stream_seeding():
    """The helper must warm exactly the head the arrival stream hammers."""
    from repro.serving.arrivals import _FeatureSource

    spec = uniform_tables_spec(num_tables=3, corpus_size=2_000, num_samples=100)
    source = _FeatureSource(spec, seed=11)
    heads = zipf_head_ids(spec.fields, seed=11, count=16)
    for sampler, head in zip(source._samplers, heads):
        np.testing.assert_array_equal(sampler.hottest_ids(16), head)


def test_count_clamped_to_smallest_corpus():
    fields = [FieldSpec(corpus_size=10), FieldSpec(corpus_size=10_000)]
    heads = zipf_head_ids(fields, seed=0, count=64)
    assert all(len(h) == 10 for h in heads)


def test_rejects_bad_inputs():
    with pytest.raises(WorkloadError):
        zipf_head_ids([], seed=0, count=4)
    with pytest.raises(WorkloadError):
        zipf_head_ids([FieldSpec(corpus_size=100)], seed=0, count=0)


def test_deterministic_across_calls():
    fields = [FieldSpec(corpus_size=300)]
    a = zipf_head_ids(fields, seed=3, count=8)
    b = zipf_head_ids(fields, seed=3, count=8)
    np.testing.assert_array_equal(a[0], b[0])
    c = zipf_head_ids(fields, seed=4, count=8)
    assert not np.array_equal(a[0], c[0])
