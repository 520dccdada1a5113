"""What serving only reads is held once.

* A deep copy of a dense server shares the model's cross and MLP towers,
  whose arrays are read-only, and computes the same probabilities.
* A request is a row of an id cube: it stores the cube and its row in
  it (four slots, no ``__dict__``), whatever built it; ``feature_ids``
  is the ``(tables, ids)`` row view computed on read, and a tracemalloc
  budget pins what a request costs.  Ids of its own become a one-row
  cube, ids beside a source must be that row, and a list mixing cubes
  is served as the one cube of its rows.  It is frozen, and pickling,
  deep copies and ``dataclasses.replace`` keep its ids.
* Requests compare and hash by identity.
* A table's bank numbers its rows at int32.
"""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, WorkloadError
from repro.model.dcn import DeepCrossNetwork
from repro.scenarios import build_scenario
from repro.serving.arrivals import PoissonArrivals, Request, request_columns
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.embedding_table import (
    EmbeddingTable,
    _RowBank,
    reference_vectors,
)
from repro.tables.store import EmbeddingStore
from repro.tables.table_spec import TableSpec
from repro.workloads.synthetic import uniform_tables_spec

#: Requests the memory budget is measured over.
BUDGET_REQUESTS = 10_000
#: Bytes one request over a shared 8-table cube may hold: about 104
#: measured (the four-slot Request, its int id and its list slot), with
#: ~1.4x headroom.  A request that also stores a row view, a ``(cube,
#: row)`` pair and a ``__dict__`` costs about 330 B; a tuple of
#: per-table views about 1.2 KB.
REQUEST_BYTES = 144


def _dataset(tables=4, ids_per_field=1):
    return dataclasses.replace(
        uniform_tables_spec(
            num_tables=tables, corpus_size=2_000, alpha=-1.2, dim=8,
        ),
        ids_per_field=ids_per_field,
    )


class TestSharedTowers:
    @pytest.fixture(scope="class")
    def served(self, hw):
        dataset = uniform_tables_spec(
            num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
        )
        server = PipelinedInferenceServer(
            dataset,
            FlecheEmbeddingLayer(
                EmbeddingStore(dataset.table_specs(), hw),
                FlecheConfig(cache_ratio=0.05), hw,
            ),
            hw, depth=2,
            policy=BatchingPolicy(max_batch_size=128, max_delay=2e-4),
            model=DeepCrossNetwork(
                num_tables=4, embedding_dim=16, hidden_units=(64, 32)
            ),
            include_dense=True,
        )
        server.serve(PoissonArrivals(dataset, 400_000.0, seed=1).generate(300))
        return server, PoissonArrivals(dataset, 400_000.0, seed=2).generate(600)

    def test_a_copy_shares_the_towers(self, served):
        server, _ = served
        model = server.engine.model
        clone = copy.deepcopy(server).engine.model
        assert clone is not model
        assert clone.cross is model.cross
        assert clone.mlp is model.mlp
        # What each copy changes as it serves stays its own.
        assert clone._kernels_memo is not model._kernels_memo

    def test_tower_arrays_are_read_only(self, served):
        model = served[0].engine.model
        arrays = (model.cross.weights + model.cross.biases
                  + model.mlp.weights + model.mlp.biases)
        layers = model.cross.num_layers + model.mlp.num_layers
        assert len(arrays) == 2 * layers
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array  # the same values: harmless if allowed

    def test_a_copy_serves_the_same_probabilities(self, served):
        server, requests = served
        expected = copy.deepcopy(server).serve(requests).probabilities
        got = copy.deepcopy(server).serve(requests).probabilities
        assert got.shape == (len(requests),)
        assert got.tobytes() == expected.tobytes()
        x = np.random.default_rng(0).standard_normal(
            (16, server.engine.model.input_dim)
        ).astype(np.float32)
        model = server.engine.model
        inline = model.mlp.forward(model.cross.forward(x))
        assert (copy.deepcopy(model).forward(x).probabilities.tobytes()
                == inline.tobytes())


def _assert_rows_of(requests, cube, dataset):
    shape = (dataset.num_tables, dataset.ids_per_field)
    for request in requests:
        cube_of, row = request.source
        assert cube_of is cube
        ids = request.feature_ids
        assert isinstance(ids, np.ndarray)
        assert ids.base is cube and ids.shape == shape
        assert len(ids) == dataset.num_tables
        for table, column in enumerate(ids):
            assert np.array_equal(column, cube[row, table])
            assert np.array_equal(ids[table], cube[row, table])


class TestRowView:
    @pytest.mark.parametrize("ids_per_field", [1, 3])
    def test_generate(self, ids_per_field):
        dataset = _dataset(ids_per_field=ids_per_field)
        requests = PoissonArrivals(dataset, 50_000.0, seed=3).generate(40)
        _assert_rows_of(requests, requests[0].source[0], dataset)

    def test_generate_until(self):
        dataset = _dataset()
        requests = PoissonArrivals(dataset, 50_000.0, seed=3).generate_until(
            1e-3
        )
        assert requests
        _assert_rows_of(requests, requests[0].source[0], dataset)

    def test_scenario_builder(self):
        dataset = _dataset(tables=3)
        load = build_scenario(
            "flash_crowd", dataset, seed=5, base_rate=20_000.0
        ).build()
        cube = load.requests[0].source[0]
        assert all(r.source[0] is cube for r in load.requests)
        _assert_rows_of(load.requests, cube, dataset)

    def test_tuple_plus_source_becomes_the_row(self):
        dataset = _dataset(ids_per_field=2)
        cube = np.arange(5 * 4 * 2, dtype=np.int64).reshape(5, 4, 2).copy()
        requests = [
            Request(i, i * 1e-4, tuple(cube[i]), source=(cube, i))
            for i in range(5)
        ]
        _assert_rows_of(requests, cube, dataset)

    def test_replace_and_pickle_keep_the_ids(self):
        dataset = _dataset(ids_per_field=2)
        requests = PoissonArrivals(dataset, 50_000.0, seed=4).generate(8)
        cube = requests[0].source[0]
        moved = [dataclasses.replace(r, arrival_time=0.5) for r in requests]
        _assert_rows_of(moved, cube, dataset)
        for before, after in zip(requests, moved):
            # ``feature_ids`` is a view made on each read: the same row
            # of the same cube, not the same object.
            assert after.cube is before.cube and after.row == before.row
            assert after.arrival_time == 0.5
        restored = pickle.loads(pickle.dumps(requests))
        _assert_rows_of(restored, restored[0].cube, dataset)
        for before, after in zip(requests, restored):
            assert after.request_id == before.request_id
            assert np.array_equal(after.feature_ids, before.feature_ids)
            assert np.array_equal(after.source[0], cube)

    def test_a_tuple_not_of_the_cube_is_refused(self):
        """Ids beside a source must be that row: a tuple of another
        cube, or of arrays of no cube, is refused rather than served."""
        cube = np.arange(3 * 2 * 2, dtype=np.uint64).reshape(3, 2, 2).copy()
        other = np.ones((3, 2, 2), dtype=np.uint64)
        for ids in (tuple(other[0]), (np.array([7, 8]), np.array([9, 10]))):
            with pytest.raises(WorkloadError, match="must be its row"):
                Request(0, 0.0, ids, source=(cube, 0))

    def test_another_row_of_the_cube_is_refused(self):
        """Another row of the source cube beside a source is refused;
        the row itself, in either form, is accepted."""
        cube = np.arange(3 * 2 * 2, dtype=np.uint64).reshape(3, 2, 2).copy()
        for ids in (cube[2], tuple(cube[2])):
            with pytest.raises(WorkloadError, match="must be its row"):
                Request(0, 0.0, ids, source=(cube, 0))
        # The row itself, as one array or one array a table, is accepted.
        for ids in (cube[0], tuple(cube[0]), None):
            request = Request(0, 0.0, ids, source=(cube, 0))
            assert request.cube is cube and request.row == 0

    @pytest.mark.parametrize("view", [
        lambda cube: cube[:, :, ::2],
        lambda cube: cube.transpose(0, 2, 1),
    ])
    def test_a_row_of_a_strided_cube_is_its_row(self, view):
        """A row of a cube that is not contiguous is still its row:
        ``dataclasses.replace`` passes it back, in either form."""
        cube = view(np.arange(3 * 2 * 4, dtype=np.uint64).reshape(3, 2, 4))
        assert not cube.flags.c_contiguous
        request = Request(1, 0.0, None, source=(cube, 1))
        moved = dataclasses.replace(request, arrival_time=0.5)
        assert moved.cube is cube and moved.row == 1
        for ids in (cube[1], tuple(cube[1])):
            assert Request(1, 0.0, ids, source=(cube, 1)).row == 1
        with pytest.raises(WorkloadError, match="must be its row"):
            Request(1, 0.0, cube[2], source=(cube, 1))

    def test_own_ids_become_a_one_row_cube(self):
        ids = (np.array([7, 8], np.int64), np.array([9, 10], np.int64))
        request = Request(3, 0.5, ids)
        assert request.cube.shape == (1, 2, 2)
        assert request.cube.dtype == np.uint64 and request.row == 0
        assert request.feature_ids.tolist() == [[7, 8], [9, 10]]
        assert request.source[0] is request.cube
        empty = Request(4, 0.0, ())
        assert empty.cube.shape == (1, 0, 0) and len(empty.feature_ids) == 0

    @pytest.mark.parametrize("ids", [
        (np.array([1, 2]), np.array([3])),  # ragged per-table ids
        (np.array([1]), 2),                 # not an array a table
        np.array([1, 2]),                   # no table axis
        None,
    ])
    def test_ragged_or_malformed_ids_are_refused(self, ids):
        with pytest.raises(WorkloadError, match="id array a table"):
            Request(0, 0.0, ids)

    def test_a_mixed_list_is_served_as_one_cube(self, hw):
        """Rows of two cubes beside a cube-less request are served
        bit-identically to the same ids as rows of one cube: latencies,
        probabilities and counters."""
        dataset = _dataset(tables=3, ids_per_field=2)
        whole = PoissonArrivals(dataset, 200_000.0, seed=6).generate(240)
        cube = whole[0].cube
        split = 120
        # The second half moves to a cube of its own (int64, unlike the
        # uint64 cube of the first), and one request carries its ids.
        second = cube[split:].astype(np.int64)
        mixed = [
            Request(r.request_id, r.arrival_time, None, source=(cube, r.row))
            for r in whole[:split]
        ] + [
            Request(r.request_id, r.arrival_time, None,
                    source=(second, r.row - split))
            for r in whole[split:]
        ]
        mixed[7] = Request(7, whole[7].arrival_time,
                           tuple(np.array(cube[7])))
        columns = request_columns(mixed)
        assert columns.cube.dtype == np.uint64
        assert columns.cube.tobytes() == cube.astype(np.uint64).tobytes()

        def serve(requests):
            server = PipelinedInferenceServer(
                dataset,
                FlecheEmbeddingLayer(
                    EmbeddingStore(dataset.table_specs(), hw),
                    FlecheConfig(cache_ratio=0.05), hw,
                ),
                hw, depth=2,
                policy=BatchingPolicy(max_batch_size=32, max_delay=2e-4),
                model=DeepCrossNetwork(
                    num_tables=3, embedding_dim=8, hidden_units=(16,)
                ),
                include_dense=True,
            )
            return server.serve(requests)

        want, got = serve(whole), serve(mixed)
        assert got.latencies.tobytes() == want.latencies.tobytes()
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.metrics.to_dict() == want.metrics.to_dict()

    def test_memory_budget(self):
        """The ledger's form (a tuple of row views plus ``source``)."""
        n = BUDGET_REQUESTS
        cube = np.random.default_rng(0).integers(
            0, 1_000, (n, 8, 1), dtype=np.int64
        )
        times = np.arange(n, dtype=np.float64).tolist()
        tracemalloc.start()
        try:
            requests = [
                Request(i, times[i], tuple(cube[i]), source=(cube, i))
                for i in range(n)
            ]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(requests) == n
        assert held <= REQUEST_BYTES * n, f"{held / n:.0f} B a request"


def _two_forms():
    """A row of a shared cube, a request of its own ids (a one-row cube),
    and another row of the shared cube (no ids given beside it)."""
    cube = np.arange(3 * 2 * 2, dtype=np.uint64).reshape(3, 2, 2).copy()
    own = (np.array([5, 6], np.uint64), np.array([7, 8], np.uint64))
    return [
        Request(0, 0.25, tuple(cube[0]), source=(cube, 0)),
        Request(1, 0.5, own),
        Request(2, 0.75, None, source=(cube, 2)),
    ]


def _assert_same_request(got, want):
    assert got is not want
    assert (got.request_id, got.arrival_time, got.row) == (
        want.request_id, want.arrival_time, want.row
    )
    assert got.cube.tobytes() == want.cube.tobytes()
    assert np.array_equal(got.feature_ids, want.feature_ids)


class TestSlottedRequest:
    def test_no_dict_and_a_row_stores_no_view(self):
        assert Request.__slots__ == ("request_id", "arrival_time", "cube",
                                     "row")
        row, own, other = _two_forms()
        for request in (row, own, other):
            assert not hasattr(request, "__dict__")
        assert own.cube.shape == (1, 2, 2) and own.row == 0

    @pytest.mark.parametrize(
        "name", ["request_id", "arrival_time", "cube", "row",
                 "feature_ids", "source"],
    )
    def test_frozen(self, name):
        request = _two_forms()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(request, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(request, name)
        assert request.arrival_time == 0.25

    def test_pickle_round_trip(self):
        requests = _two_forms()
        restored = pickle.loads(pickle.dumps(requests))
        for got, want in zip(restored, requests):
            _assert_same_request(got, want)
        # A stream's rows come back sharing one cube.
        assert restored[0].cube is restored[2].cube

    def test_deepcopy_round_trip(self):
        requests = _two_forms()
        copied = copy.deepcopy(requests)
        for got, want in zip(copied, requests):
            _assert_same_request(got, want)
            assert got.cube is not want.cube
        assert copied[0].cube is copied[2].cube
        shallow = copy.copy(requests[0])
        assert shallow is not requests[0]
        assert shallow.cube is requests[0].cube

    def test_replace_round_trip(self):
        for want in _two_forms():
            got = dataclasses.replace(want)
            _assert_same_request(got, want)
            assert got.cube is want.cube
        row = _two_forms()[0]
        detached = dataclasses.replace(row, source=None)
        assert detached.cube is not row.cube
        assert detached.cube.shape == (1,) + row.feature_ids.shape
        assert np.array_equal(detached.feature_ids, row.feature_ids)


class TestIdentity:
    def test_tuple_form(self):
        a = Request(0, 0.0, (np.array([1, 2]),))
        b = Request(0, 0.0, (np.array([1, 2]),))
        self._check(a, b)

    def test_row_form(self):
        cube = np.ones((2, 3, 2), dtype=np.int64)
        a = Request(0, 0.0, tuple(cube[0]), source=(cube, 0))
        b = Request(0, 0.0, cube[0], source=(cube, 0))
        self._check(a, b)

    @staticmethod
    def _check(a, b):
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a) and hash(a) != hash(b)
        held = {a, b}
        assert a in held and b in held and len(held) == 2
        assert dataclasses.replace(a) not in held


class TestBankRowNumbers:
    def test_row_numbers_are_int32(self):
        table = EmbeddingTable(TableSpec(table_id=91, corpus_size=500, dim=4))
        ids = np.array([499, 3, 3, 0], dtype=np.uint64)
        got = table.lookup(ids)
        assert table._bank.row_of.dtype == np.int32
        assert table._bank.row_of.nbytes == 4 * 500
        assert got.tobytes() == reference_vectors(91, ids, 4).tobytes()
        assert table.lookup(ids[::-1]).tobytes() == got[::-1].tobytes()

    def test_a_corpus_of_2_31_ids_is_refused(self):
        # Refused before anything is allocated.
        with pytest.raises(ConfigError, match="int32"):
            _RowBank(2**31, 4)
        with pytest.raises(ConfigError, match="int32"):
            EmbeddingTable(TableSpec(table_id=92, corpus_size=2**31, dim=4))
