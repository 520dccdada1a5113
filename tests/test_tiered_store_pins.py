"""Pinned outputs, charges and notices of the tiered store under faults.

``TieredParameterStore.query_many`` and ``apply_update`` run a fixed
trace: a DRAM tier small enough to evict, one shard outage and one
DRAM-tier failure window, stale degradation, and write-through refreshes
between batches.  The pins hold, to the bit, the vectors served, the
host cost charged, the order in which eviction notices reach a
registered invalidator, the rows each refresh updated, and every
``tier.*`` / ``faults.*`` counter.  A change to the DRAM tier or to the
fault path that moves any of them fails here, naming which.
"""

import hashlib

import numpy as np

from repro.faults import (
    BreakerConfig,
    DegradeConfig,
    DramTierFailure,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    ShardOutage,
)
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.obs.registry import MetricsRegistry
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs

NUM_TABLES = 4
CORPUS = 300
DIM = 16
BATCHES = 16
BATCH_KEYS = 64
STEP = 1e-3

#: sha256 of every batch's served vectors.
VECTORS = "0cd5f345a0a0bfd9611905375cfd80c074bd34602d71f6e940a730f24e2ef5ab"
#: Summed ``(index_time, copy_time)`` of every batch's cost.
COST = (0.0001536, 0.005880689767773639)
#: ``(notices, keys, sha256 of the keys in arrival order)``.
NOTICES = (
    11, 532, "960df89462ee6f551a763e3be02c7277394c6a3d9867e785c6dd185ed2583606"
)
#: Rows each ``apply_update`` wrote through to the DRAM tier.
REFRESHED = [4, 5, 6, 0, 4]
#: ``tier.*`` and ``faults.*`` counter totals after the trace.
COUNTERS = {
    "faults.attempts": 64,
    "faults.breaker_fast_fails": 3,
    "faults.failures": 4,
    "faults.hedges_fired": 4,
    "faults.retries": 2,
    "tier.degraded_keys": 42,
    "tier.dram_bypass_queries": 8,
    "tier.dram_evictions": 532,
    "tier.dram_hits": 147,
    "tier.dram_misses": 877,
    "tier.dram_refreshed": 19,
    "tier.lookup_keys": 1024,
    "tier.pointer_invalidations": 532,
    "tier.remote_failures": 4,
    "tier.remote_fetches": 64,
    "tier.remote_keys": 844,
    "tier.remote_time": 0.005871587545551418,
}


def build(hw):
    specs = make_table_specs([CORPUS] * NUM_TABLES, [DIM] * NUM_TABLES)
    schedule = FaultSchedule([
        ShardOutage(shard=2, start=4 * STEP, duration=3 * STEP),
        DramTierFailure(start=10 * STEP, duration=2 * STEP),
    ])
    remote = RemoteParameterServer(
        specs,
        injector=FaultInjector(schedule, seed=5),
        retry_policy=RetryPolicy(hedge_delay=150e-6),
        breaker=BreakerConfig(cooldown=2 * STEP),
    )
    store = TieredParameterStore(
        specs, hw, dram_capacity=150, remote=remote,
        degrade=DegradeConfig(policy="stale"),
    )
    registry = MetricsRegistry()
    store.bind_observability(registry)
    return store, registry


def run(hw):
    store, registry = build(hw)
    notices = []
    store.register_pointer_invalidator(lambda keys: notices.append(keys.copy()))
    rng = np.random.default_rng(2028)
    vectors = hashlib.sha256()
    index_time = copy_time = 0.0
    refreshed = []
    for batch in range(BATCHES):
        store.advance_to(batch * STEP)
        table_ids = rng.integers(0, NUM_TABLES, BATCH_KEYS)
        # Squared uniforms skew the ids towards the head of each table.
        feature_ids = (rng.random(BATCH_KEYS) ** 2 * CORPUS).astype(np.uint64)
        result = store.query_many(table_ids, feature_ids)
        vectors.update(np.ascontiguousarray(result.vectors).tobytes())
        index_time += result.cost.index_time
        copy_time += result.cost.copy_time
        if batch % 3 == 2:
            table = batch % NUM_TABLES
            ids = np.arange(0, 40, 4, dtype=np.uint64)
            rows = reference_vectors(table, ids, DIM) + np.float32(batch)
            refreshed.append(store.apply_update(table, ids, rows))
    keys = np.concatenate(notices)
    counters = {}
    for (name, _), value in registry.snapshot().counters.items():
        if name.startswith(("tier.", "faults.")):
            counters[name] = counters.get(name, 0) + value
    return {
        "vectors": vectors.hexdigest(),
        "cost": (index_time, copy_time),
        "notices": (
            len(notices), len(keys), hashlib.sha256(keys.tobytes()).hexdigest()
        ),
        "refreshed": refreshed,
        "counters": counters,
    }


def test_served_vectors_are_pinned(hw):
    assert run(hw)["vectors"] == VECTORS


def test_cost_is_pinned(hw):
    assert run(hw)["cost"] == COST


def test_eviction_notices_arrive_in_pinned_order(hw):
    assert run(hw)["notices"] == NOTICES


def test_refresh_write_through_is_pinned(hw):
    assert run(hw)["refreshed"] == REFRESHED


def test_tier_and_fault_counters_are_pinned(hw):
    assert run(hw)["counters"] == COUNTERS
