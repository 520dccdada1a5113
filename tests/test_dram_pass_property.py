"""The batched DRAM pass against the per-table reference tier.

``DramCacheLayer.lookup`` runs a whole mixed-table batch in one pass:
keys live in an ``OrderedDict`` of packed key -> slot, rows in slot
arrays, and the pass returns one eviction notice (``DramPass.evicted``).
The reference below is the tier it replaced, moved here unchanged in
behaviour: an
``OrderedDict`` of packed key -> row, served one table at a time, which
fetched each table's sorted distinct misses, inserted them if the fetch
was cacheable and then evicted from the LRU front down to capacity.

For random batches (duplicate ids, capacities down to one row, each
table's fetch cacheable or not) with flushes and refreshes in between,
the two must serve the same vectors, count the same hits and misses,
fetch the same keys, report the same evicted keys in the same order,
and end every step with the same resident keys in the same LRU order.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multitier.dram_cache import DramCacheLayer
from repro.tables.embedding_table import reference_vectors
from repro.tables.store import pack_global_key
from repro.tables.table_spec import make_table_specs

from conftest import dram_pass

NUM_TABLES = 3
CORPUS = 12
DIM = 4
SPECS = make_table_specs([CORPUS] * NUM_TABLES, [DIM] * NUM_TABLES)


class ReferenceDramLayer:
    """The per-table ``OrderedDict`` DRAM tier (key -> row)."""

    def __init__(self, specs, capacity, fetch):
        self.specs = list(specs)
        self.capacity = capacity
        self._fetch = fetch
        self._entries = OrderedDict()
        self.notices = []
        self.hits = 0
        self.misses = 0

    def _evict_to_capacity(self):
        evicted = []
        while len(self._entries) > self.capacity:
            key, _ = self._entries.popitem(last=False)
            evicted.append(key)
        if evicted:
            self.notices.append(evicted)

    def flush(self):
        if not self._entries:
            return 0
        keys = list(self._entries.keys())
        self._entries.clear()
        self.notices.append(keys)
        return len(keys)

    def lookup(self, table_id, feature_ids):
        spec = self.specs[table_id]
        feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
        vectors = np.zeros((len(feature_ids), spec.dim), dtype=np.float32)
        missing_positions = []
        for i, fid in enumerate(feature_ids):
            key = pack_global_key(table_id, int(fid))
            row = self._entries.get(key)
            if row is not None:
                self._entries.move_to_end(key)
                vectors[i] = row
                self.hits += 1
            else:
                missing_positions.append(i)
                self.misses += 1
        if missing_positions:
            positions = np.asarray(missing_positions)
            missing_ids = feature_ids[positions]
            unique_missing, inverse = np.unique(
                missing_ids, return_inverse=True
            )
            fetched, cacheable = self._fetch(table_id, unique_missing)
            vectors[positions] = fetched[inverse]
            if cacheable:
                for fid, row in zip(unique_missing, fetched):
                    self._entries[pack_global_key(table_id, int(fid))] = row
                self._evict_to_capacity()
        return vectors

    def refresh(self, table_id, feature_ids, vectors):
        updated = 0
        for fid, row in zip(feature_ids, vectors):
            key = pack_global_key(table_id, int(fid))
            if key in self._entries:
                self._entries[key] = row
                updated += 1
        return updated


def _batches():
    """One mixed-table batch plus each table's fetch outcome."""
    return st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, NUM_TABLES - 1), min_size=n, max_size=n),
        st.lists(st.integers(0, CORPUS - 1), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=NUM_TABLES, max_size=NUM_TABLES),
    ))


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), _batches()),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(
            st.just("refresh"),
            st.tuples(
                st.integers(0, NUM_TABLES - 1),
                st.lists(st.integers(0, CORPUS - 1), min_size=1, max_size=6),
            ),
        ),
    ),
    min_size=1,
    max_size=14,
)


def _assert_same_state(layer, ref):
    assert list(layer._slots) == list(ref._entries)
    for key, slot in layer._slots.items():
        np.testing.assert_array_equal(
            layer._rows[DIM][slot], ref._entries[key]
        )


@settings(max_examples=250, deadline=None)
@given(capacity=st.integers(1, 10), steps=_STEPS)
def test_batched_pass_matches_the_per_table_reference(capacity, steps):
    layer = DramCacheLayer(SPECS, capacity)
    outcome = {}
    ref_fetches = []

    def ref_fetch(table_id, ids):
        ref_fetches.append((table_id, [pack_global_key(table_id, int(i))
                                       for i in ids]))
        return reference_vectors(table_id, ids, DIM), outcome[table_id]

    ref = ReferenceDramLayer(SPECS, capacity, ref_fetch)
    for number, (kind, arg) in enumerate(steps):
        ref.notices.clear()
        notice = []
        if kind == "flush":
            notice = layer.flush()
            assert len(notice) == ref.flush()
        elif kind == "refresh":
            table_id, ids = arg
            ids = np.array(ids, dtype=np.uint64)
            rows = reference_vectors(table_id, ids, DIM) + np.float32(number)
            assert layer.refresh(table_id, ids, rows) == ref.refresh(
                table_id, ids, rows
            )
        else:
            tables, ids, cacheable = arg
            tables = np.array(tables)
            ids = np.array(ids, dtype=np.uint64)
            outcome = dict(enumerate(cacheable))
            ref_fetches.clear()
            expected = np.zeros((len(ids), DIM), np.float32)
            before_hits, before_misses = ref.hits, ref.misses
            for table_id in np.unique(tables):
                mask = tables == table_id
                expected[mask] = ref.lookup(int(table_id), ids[mask])
            vectors, found, fetches = dram_pass(
                layer, tables, ids, lambda table: outcome[table]
            )
            np.testing.assert_array_equal(vectors, expected)
            assert len(found.hit_positions) == ref.hits - before_hits
            assert len(found.miss_positions) == ref.misses - before_misses
            assert fetches == ref_fetches
            notice = found.evicted
        # The batch's (or flush's) one notice holds every key the
        # reference evicted, in its order.
        assert notice == [key for keys in ref.notices for key in keys]
        _assert_same_state(layer, ref)
