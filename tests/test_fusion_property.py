"""Property-based tests for kernel fusion (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_platform
from repro.core.config import FlecheConfig
from repro.core.fusion import (
    build_fusion_plan,
    fused_kernel_spec,
    identify_threads,
    warp_divergence_free,
)
from repro.core.workflow import FlecheEmbeddingLayer, _index_kernel_spec
from repro.gpusim.kernel import KernelSpec
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

thread_lists = st.lists(
    st.integers(min_value=0, max_value=4096), min_size=1, max_size=64
)


def _specs(threads):
    return [KernelSpec(f"k{i}", threads=t) for i, t in enumerate(threads)]


@settings(max_examples=80, deadline=None)
@given(threads=thread_lists)
def test_identification_is_a_partition(threads):
    """Every fused thread maps to exactly one original kernel, and each
    kernel receives exactly its (warp-rounded) thread count."""
    plan = build_fusion_plan(_specs(threads))
    if plan.total_threads == 0:
        return
    tids = np.arange(plan.total_threads)
    kernel_ids, locals_ = identify_threads(plan, tids)
    rounded = np.diff(plan.scan)
    counts = np.bincount(kernel_ids, minlength=len(threads))
    np.testing.assert_array_equal(counts, rounded)
    # Local ids within each kernel are 0..m-1 exactly.
    for k in range(len(threads)):
        mine = np.sort(locals_[kernel_ids == k])
        np.testing.assert_array_equal(mine, np.arange(rounded[k]))


@settings(max_examples=80, deadline=None)
@given(threads=thread_lists)
def test_fusion_is_always_divergence_free(threads):
    plan = build_fusion_plan(_specs(threads))
    assert warp_divergence_free(plan)


@settings(max_examples=50, deadline=None)
@given(threads=thread_lists)
def test_fused_work_conserved(threads):
    """Fusing must neither lose nor duplicate device work."""
    specs = [
        KernelSpec(f"k{i}", threads=t, stream_bytes=t * 8, random_transactions=t)
        for i, t in enumerate(threads)
    ]
    plan = build_fusion_plan(specs)
    assert plan.fused_spec.stream_bytes == sum(t * 8 for t in threads)
    assert plan.fused_spec.random_transactions == sum(threads)


_LAYERS = {}


def _layer(num_tables):
    """A Fleche layer over ``num_tables`` small tables (built once)."""
    if num_tables not in _LAYERS:
        hw = default_platform()
        dataset = uniform_tables_spec(
            num_tables=num_tables, corpus_size=64, dim=8,
        )
        _LAYERS[num_tables] = FlecheEmbeddingLayer(
            EmbeddingStore(dataset.table_specs(), hw), FlecheConfig(), hw,
        )
    return _LAYERS[num_tables]


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 300), min_size=1, max_size=12))
def test_fused_index_spec_from_counts_equals_fusing_per_table_specs(counts):
    """The decoupled index launch comes from the per-table key counts in
    one step; it must be the spec fusing one probe kernel per table."""
    expected = fused_kernel_spec(
        [_index_kernel_spec(f"fc_index_t{t}", c) for t, c in enumerate(counts)],
        "fc_index_fused",
    )
    layer = _layer(len(counts))
    got = layer._fused_index_spec(
        np.array(counts), None, None, sum(counts), len(counts)
    )
    assert got == expected
