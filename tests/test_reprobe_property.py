"""The copy stage's re-probe is skipped only where it cannot matter.

A pipelined batch's replacement skips leading misses that another
in-flight batch cached after this batch's index probe.  The flat cache
counts every insert that publishes cached entries, and the copy stage
re-probes only when that count moved since its probe.  Hypothesis
interleaves two batches' stages on one cache and checks the outcome
against a reference whose copy stage always re-probes; a second property
checks that every path creating a cached entry moves the count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.precision import PrecisionConfig
from repro.core.snapshot import restore, snapshot
from repro.core.unified_index import is_dram_pointer
from repro.core.workflow import FlecheEmbeddingLayer
from repro.gpusim.executor import Executor
from repro.tables.store import EmbeddingStore
from repro.tables.table_spec import make_table_specs
from repro.workloads.trace import TraceBatch

CORPUS = 300
TABLES = 3


class _AlwaysReprobing(FlatCache):
    """Reference cache: its insert count never reads the same twice, so
    every copy stage re-probes."""

    @property
    def cached_inserts(self):
        self._reads = getattr(self, "_reads", 0) + 1
        return self._reads

    @cached_inserts.setter
    def cached_inserts(self, value):
        pass


def _layer(hw, quantizing=False):
    store = EmbeddingStore(make_table_specs([CORPUS] * TABLES, [8] * TABLES), hw)
    config = FlecheConfig(
        cache_ratio=0.15,
        precision=PrecisionConfig(
            fp32_share=0.25, fp16_share=0.25, int8_share=0.5
        ) if quantizing else PrecisionConfig(),
    )
    return FlecheEmbeddingLayer(store, config, hw)


def _count_cached_inserts(cache):
    """Count, beside the cache, index inserts that publish cache
    locations (untagged payloads)."""
    seen = [0]
    real = cache.index.insert

    def insert(keys, values, *args, **kwargs):
        values = np.asarray(values, dtype=np.uint64)
        if len(values) and not is_dram_pointer(values).any():
            seen[0] += 1
        return real(keys, values, *args, **kwargs)

    cache.index.insert = insert
    return seen


def _batch(ids):
    per_table = [np.array(t, dtype=np.uint64) for t in ids]
    return TraceBatch(per_table, batch_size=len(per_table[0]))


batches = st.lists(
    st.lists(st.integers(0, CORPUS - 1), min_size=12, max_size=12),
    min_size=TABLES, max_size=TABLES,
)


#: Whether the cache quantizes, and rounds of two batches with the order
#: their stages run in.  Interleaved on a quantizing cache, both batches'
#: ``retier_hits`` may see the same hit: only the first may move it.
runs = st.tuples(
    st.booleans(),
    st.lists(st.tuples(batches, batches, st.permutations("AAABBB")),
             min_size=1, max_size=4),
)


def _run_interleaved(layer, hw, rounds):
    """Serve each round's two batches, resuming their stage generators in
    the drawn order; returns every output."""
    outputs = []
    for ids_a, ids_b, schedule in rounds:
        gens = {
            "A": layer.query_stages(_batch(ids_a), Executor(hw)),
            "B": layer.query_stages(_batch(ids_b), Executor(hw)),
        }
        for gen in gens.values():
            next(gen)  # announce; no work yet
        for name in schedule:
            try:
                gens[name].send(None)
            except StopIteration as stop:
                outputs.extend(stop.value.outputs)
    return outputs


def _assert_same_cache(got, want):
    for column in ("_keys", "_values", "_stamps"):
        np.testing.assert_array_equal(
            getattr(got.index, column), getattr(want.index, column)
        )
    assert len(got.index) == len(want.index)
    assert got.unified_entries == want.unified_entries
    assert got.reclaimer.pending == want.reclaimer.pending
    for cid, slab in got.pool._classes.items():
        ref = want.pool._classes[cid]
        assert slab.free_slots == ref.free_slots
        assert slab.live == ref.live
        np.testing.assert_array_equal(slab.storage, ref.storage)


@settings(max_examples=40, deadline=None)
@given(run=runs)
def test_interleaved_stages_equal_always_reprobing(hw, run):
    quantizing, rounds = run
    layer = _layer(hw, quantizing)
    reference = _layer(hw, quantizing)
    reference.cache.__class__ = _AlwaysReprobing

    got = _run_interleaved(layer, hw, rounds)
    want = _run_interleaved(reference, hw, rounds)

    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    _assert_same_cache(layer.cache, reference.cache)
    # Independent of the reference (which runs the same workflow): a key
    # inserted twice would leave its first pool slot live but unindexed.
    ok, message = layer.cache._audit_pool()
    assert ok, message


@settings(max_examples=40, deadline=None)
@given(run=runs)
def test_every_cached_entry_path_moves_the_count(hw, run):
    """admit_and_insert (one-tier and quantizing), retier_hits
    (quantizing hits) and snapshot restore all publish through the
    counted insert."""
    quantizing, rounds = run
    layer = _layer(hw, quantizing)
    cache = layer.cache
    seen = _count_cached_inserts(cache)
    _run_interleaved(layer, hw, rounds)
    assert cache.cached_inserts == seen[0]
    assert cache.cached_inserts > 0

    fresh = _layer(hw, quantizing).cache
    restored_seen = _count_cached_inserts(fresh)
    if restore(fresh, snapshot(cache)):
        assert fresh.cached_inserts == restored_seen[0] > 0
    else:
        assert fresh.cached_inserts == restored_seen[0] == 0
