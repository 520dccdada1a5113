"""Stateful property-based tests (hypothesis rule-based state machines).

Two long-running invariant suites:

* :class:`FlatCacheMachine` — drives a FlatCache through random encode /
  lookup / insert / demote / invalidate sequences against a Python-dict
  model; any hit must return the exact ground-truth vector, and pool
  accounting must never leak or overflow.
* :class:`PoolMachine` — random allocate / release / write / read on the
  slab pool; live-slot accounting and data integrity must always hold.
* :class:`MissTableMachine` — publish / match / retire on the pipelined
  loop's :class:`~repro.serving.pipeline.InFlightMissTable` against a
  dict model: keys publish exactly once while in flight, matches return
  the published vectors with degraded flags propagated, and no entry
  survives past the completion frontier of its owning batch.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.mempool.slab_pool import SlabMemoryPool
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs

DIM = 8
CORPUS = 64


class FlatCacheMachine(RuleBasedStateMachine):
    """FlatCache vs an oracle: hits are always bit-exact ground truth."""

    def __init__(self):
        super().__init__()
        specs = make_table_specs([CORPUS, CORPUS], [DIM, DIM])
        self.cache = FlatCache(
            specs,
            FlecheConfig(
                cache_ratio=0.5,
                use_unified_index=True,
                unified_index_fraction=1.0,
            ),
        )
        self.cache.set_unified_capacity(16)
        self.cache.tick()
        #: flat key -> (table, feature) the oracle knows was inserted.
        self.oracle = {}

    ids = st.lists(
        st.integers(min_value=0, max_value=CORPUS - 1), min_size=1, max_size=8
    )
    table = st.integers(min_value=0, max_value=1)

    @rule()
    def tick(self):
        self.cache.tick()

    @rule(table=table, ids=ids)
    def insert(self, table, ids):
        features = np.array(sorted(set(ids)), dtype=np.uint64)
        keys = self.cache.encode(table, features)
        vectors = reference_vectors(table, features, DIM)
        inserted, _ = self.cache.admit_and_insert(keys, vectors, DIM)
        for key, feature, ok in zip(keys, features, inserted):
            if ok:
                self.oracle[int(key)] = (table, int(feature))

    @rule(table=table, ids=ids)
    def lookup(self, table, ids):
        features = np.array(sorted(set(ids)), dtype=np.uint64)
        keys = self.cache.encode(table, features)
        outcome = self.cache.index_lookup(keys)
        if outcome.cache_hit.any():
            got = self.cache.gather(outcome.locations[outcome.cache_hit])
            expect = reference_vectors(
                table, features[outcome.cache_hit], DIM
            )
            np.testing.assert_array_equal(got, expect)

    @rule(table=table, ids=ids)
    def publish_pointers(self, table, ids):
        features = np.array(sorted(set(ids)), dtype=np.uint64)
        keys = self.cache.encode(table, features)
        self.cache.publish_dram_pointers(keys, features)

    @rule(table=table, ids=ids)
    def invalidate(self, table, ids):
        features = np.array(sorted(set(ids)), dtype=np.uint64)
        keys = self.cache.encode(table, features)
        self.cache.invalidate_dram_pointers(keys)
        outcome = self.cache.index_lookup(keys)
        assert not outcome.dram_hit.any()

    @precondition(lambda self: self.oracle)
    @rule()
    def clear_pointers(self):
        self.cache.clear_unified_index()
        assert self.cache.unified_entries == 0

    @invariant()
    def pool_never_overflows(self):
        assert 0.0 <= self.cache.pool.utilization <= 1.0

    @invariant()
    def unified_entries_bounded(self):
        assert 0 <= self.cache.unified_entries
        # Scan-derived truth matches the counter.
        _, values, _ = self.cache.index.scan()
        from repro.core.unified_index import is_dram_pointer

        assert int(is_dram_pointer(values).sum()) == self.cache.unified_entries

    @invariant()
    def live_entries_match_pool(self):
        live = self.cache.live_entries()
        pool_live = sum(
            self.cache.pool.capacity_of(d) - self.cache.pool.free_of(d)
            for d in self.cache.pool.dims()
        )
        # Pool may hold retired-but-not-yet-collected slots.
        assert live <= pool_live


FlatCacheMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestFlatCacheStateMachine = FlatCacheMachine.TestCase


class PoolMachine(RuleBasedStateMachine):
    """Slab pool: accounting and data integrity under random traffic."""

    def __init__(self):
        super().__init__()
        self.pool = SlabMemoryPool({(4, "fp32"): 32, (8, "fp32"): 16})
        #: location -> stored row (float32 tuple)
        self.model = {}

    dims = st.sampled_from([4, 8])
    counts = st.integers(min_value=0, max_value=8)

    @rule(dim=dims, count=counts)
    def allocate_and_write(self, dim, count):
        count = min(count, self.pool.free_of(dim))
        if count == 0:
            return
        locations = self.pool.allocate(dim, count, "fp32")
        rows = np.arange(count * dim, dtype=np.float32).reshape(count, dim)
        rows += len(self.model)  # make content unique-ish
        self.pool.write(locations, rows)
        for loc, row in zip(locations, rows):
            self.model[int(loc)] = row.copy()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def read_back(self, data):
        keys = data.draw(
            st.lists(
                st.sampled_from(sorted(self.model)), min_size=1, max_size=5,
                unique=True,
            )
        )
        dims = self.pool.dim_of_locations(np.array(keys, np.uint64))
        for dim in np.unique(dims):
            subset = [k for k, d in zip(keys, dims) if d == dim]
            got = self.pool.read(np.array(subset, np.uint64))
            for k, row in zip(subset, got):
                np.testing.assert_array_equal(row, self.model[k])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def release_some(self, data):
        keys = data.draw(
            st.lists(
                st.sampled_from(sorted(self.model)), min_size=1, max_size=5,
                unique=True,
            )
        )
        self.pool.release(np.array(keys, np.uint64))
        for key in keys:
            del self.model[key]

    @invariant()
    def accounting_consistent(self):
        live = sum(
            self.pool.capacity_of(d) - self.pool.free_of(d)
            for d in self.pool.dims()
        )
        assert live == len(self.model)

    @invariant()
    def utilization_in_range(self):
        assert 0.0 <= self.pool.utilization <= 1.0


PoolMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestPoolStateMachine = PoolMachine.TestCase


class MissTableMachine(RuleBasedStateMachine):
    """In-flight miss table vs a dict model.

    Batches begin in increasing owner order and retire in that same
    (FIFO) order — exactly the pipelined loop's completion frontier.
    The product contract under test: a leader publishes only keys not
    already in flight (exactly-once insertion), matches return the
    leader's vectors with degraded flags intact, and retiring an owner
    drops its entries and nothing else.
    """

    DIM = 4

    def __init__(self):
        super().__init__()
        from repro.serving.pipeline import InFlightMissTable

        self.table = InFlightMissTable()
        #: flat key -> (owner, row, degraded) the model knows is in flight.
        self.model = {}
        self.next_owner = 0
        #: Owners begun but not yet retired, oldest first.
        self.live_owners = []

    keys = st.lists(
        st.integers(min_value=0, max_value=40), min_size=1, max_size=6,
        unique=True,
    )

    @staticmethod
    def _row(key, serial):
        return np.full(
            MissTableMachine.DIM, float(key) + serial / 1024.0, np.float32
        )

    @rule()
    def begin_batch(self):
        owner = self.next_owner
        self.next_owner += 1
        self.table.set_owner(owner)
        self.live_owners.append(owner)

    @precondition(lambda self: self.live_owners)
    @rule(keys=keys, degraded=st.booleans())
    def publish(self, keys, degraded):
        # Leaders only publish keys that missed AND were not already in
        # flight (in-flight keys coalesce instead of re-fetching) — so a
        # key is published at most once per residency.
        owner = self.live_owners[-1]
        self.table.set_owner(owner)
        fresh = np.array(
            [k for k in keys if k not in self.model], np.uint64
        )
        if len(fresh) == 0:
            return
        rows = np.stack([self._row(int(k), owner) for k in fresh])
        self.table.publish(fresh, rows, degraded=degraded)
        for k, row in zip(fresh, rows):
            self.model[int(k)] = (owner, row, degraded)

    @rule(keys=keys)
    def match(self, keys):
        probe = np.array(keys, np.uint64)
        mask, rows, degraded = self.table.match(probe, dim=self.DIM)
        expect_mask = np.array([k in self.model for k in keys])
        np.testing.assert_array_equal(mask, expect_mask)
        assert degraded == sum(
            self.model[k][2] for k in keys if k in self.model
        )
        got = iter(rows)
        for k in keys:
            if k in self.model:
                np.testing.assert_array_equal(next(got), self.model[k][1])

    @precondition(lambda self: self.live_owners)
    @rule()
    def retire_oldest(self):
        owner = self.live_owners.pop(0)
        dead = [k for k, e in self.model.items() if e[0] == owner]
        assert self.table.retire(owner) == len(dead)
        for k in dead:
            del self.model[k]
        # No entry survives past the completion frontier: everything
        # left belongs to a still-live (younger) owner.
        live = set(self.live_owners)
        assert all(e[0] in live for e in self.model.values())

    @invariant()
    def table_matches_model(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def stats_conserve(self):
        stats = self.table.stats
        assert stats.published_keys - stats.retired_keys == len(self.table)
        assert stats.published_keys >= 0
        # The registry mirrors the component-internal stats exactly.
        obs = self.table.obs
        assert obs.total("coalescer.published") == stats.published_keys
        assert obs.total("coalescer.retired") == stats.retired_keys
        assert obs.total("coalescer.coalesced") == stats.coalesced_keys


MissTableMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestMissTableStateMachine = MissTableMachine.TestCase
