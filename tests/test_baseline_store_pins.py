"""Pinned charges and outputs of the two per-table baselines.

``NoCacheLayer`` and ``PerTableCacheLayer`` ask the host store for one
table's ids at a time.  These pins hold their simulated clock and their
outputs fixed, to the bit, over both host stores, so a change to how a
baseline talks to its store cannot move a result unnoticed.  The
constants were recorded when each baseline still called a per-table
``store.query(t, ids)``; they hold unchanged over ``query_many``.

Table 1 of the trace's second batch has no ids: the layer must still
return its ``(0, dim)`` output and charge what it charged before.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.no_cache import NoCacheLayer
from repro.baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from repro.gpusim.executor import Executor
from repro.multitier.hierarchy import TieredParameterStore
from repro.tables.store import EmbeddingStore
from repro.tables.table_spec import make_table_specs
from repro.workloads.trace import TraceBatch

CORPORA = [400, 300, 500]
DIMS = [16, 16, 32]

#: sha256 of every output's shape and bytes.  Both stores serve reference
#: rows, so all four runs share it.
OUTPUTS = "6ae572188eb08b4a9aced7225fe3e640f3439a2e3bc53ee1d093c202bad555de"
#: ``(layer, store) -> (executor.elapsed() after three batches, outputs)``.
PINS = {
    ("no-cache", "embedding"): (6.727533333333334e-05, OUTPUTS),
    ("no-cache", "tiered"): (0.0002689713333333333, OUTPUTS),
    ("per-table", "embedding"): (0.00016461751999999991, OUTPUTS),
    ("per-table", "tiered"): (0.00036628191999999994, OUTPUTS),
}


def three_batches():
    rng = np.random.default_rng(2027)
    batches = []
    for b in range(3):
        ids = [
            rng.integers(0, corpus, 48).astype(np.uint64) for corpus in CORPORA
        ]
        if b == 1:
            ids[1] = np.zeros(0, np.uint64)
        batches.append(TraceBatch(ids, batch_size=48))
    return batches


def build(layer_name, store_name, hw):
    specs = make_table_specs(CORPORA, DIMS)
    if store_name == "embedding":
        store = EmbeddingStore(specs, hw)
    else:
        store = TieredParameterStore(specs, hw, dram_capacity=120)
    if layer_name == "no-cache":
        return NoCacheLayer(store, hw)
    return PerTableCacheLayer(store, PerTableConfig(cache_ratio=0.1), hw)


def run(layer_name, store_name, hw):
    layer = build(layer_name, store_name, hw)
    executor = Executor(hw)
    digest = hashlib.sha256()
    outputs = []
    for batch in three_batches():
        result = layer.query(batch, executor)
        for out in result.outputs:
            digest.update(repr(out.shape).encode())
            digest.update(np.ascontiguousarray(out).tobytes())
        outputs.append(result.outputs)
    return executor.elapsed(), digest.hexdigest(), outputs


@pytest.mark.parametrize("layer_name,store_name", sorted(PINS))
def test_charges_and_outputs_are_pinned(layer_name, store_name, hw):
    elapsed, digest, _ = run(layer_name, store_name, hw)
    assert (elapsed, digest) == PINS[(layer_name, store_name)]


@pytest.mark.parametrize("layer_name,store_name", sorted(PINS))
def test_a_table_without_ids_returns_zero_rows_of_its_dim(
    layer_name, store_name, hw
):
    _, _, outputs = run(layer_name, store_name, hw)
    empty = outputs[1][1]
    assert empty.shape == (0, DIMS[1])
    assert empty.dtype == np.float32
