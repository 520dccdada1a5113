"""``RowMap`` against a ``dict`` from id to row.

Random interleavings of writes and reads: ids repeated inside one write,
rewrites of ids the map holds, empty writes, packed keys above 2**53
(where a float comparison would merge neighbours), ids given as int64 or
uint64, and enough new ids to grow the row array past its quarter
boundary several times.  Every read and every ``items()`` must equal the
reference bit for bit, ids sorted, and a ``copy.deepcopy`` of the map
must share no write with it in either direction.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables.row_map import RowMap

DIM = 3
#: Small ids make rewrites common; the large ones are packed keys of a
#: high table, neighbours a float64 cannot tell apart.
IDS = st.one_of(
    st.integers(0, 60),
    st.integers(2**62, 2**62 + 3),
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "read"]),
        st.lists(IDS, max_size=14),
        st.booleans(),
    ),
    max_size=40,
)


class Rows:
    """Fresh float32 rows, each write's bit patterns its own."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def __call__(self, n):
        return self._rng.standard_normal((n, DIM)).astype(np.float32)


def _keys(ids, unsigned):
    return np.array(ids, dtype=np.uint64 if unsigned else np.int64)


def _check(row_map, model):
    ids, rows = row_map.items()
    want = sorted(model)
    assert ids.tolist() == want
    assert rows.dtype == np.float32 and rows.shape == (len(want), DIM)
    want_rows = np.array([model[i] for i in want], np.float32).reshape(-1, DIM)
    assert rows.tobytes() == want_rows.tobytes()
    assert len(row_map) == len(model)


def _read(row_map, model, ids, unsigned):
    out = np.full((len(ids), DIM), -7.0, np.float32)
    row_map.read_into(_keys(ids, unsigned), out)
    want = np.array(
        [model.get(i, np.full(DIM, -7.0, np.float32)) for i in ids], np.float32
    ).reshape(-1, DIM)
    assert out.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(OPS)
def test_row_map_is_a_last_write_wins_dict(ops):
    row_map, model, rows_of = RowMap(DIM), {}, Rows()
    for op, ids, unsigned in ops:
        if op == "write":
            rows = rows_of(len(ids))
            row_map.write(_keys(ids, unsigned), rows)
            model.update(zip(ids, rows))
        else:
            _read(row_map, model, ids, unsigned)
        _check(row_map, model)


@settings(max_examples=40, deadline=None)
@given(OPS, st.lists(IDS, min_size=1, max_size=14))
def test_a_deep_copy_shares_no_write(ops, rewrite):
    row_map, model, rows_of = RowMap(DIM), {}, Rows()
    for op, ids, unsigned in ops:
        if op == "write":
            rows = rows_of(len(ids))
            row_map.write(_keys(ids, unsigned), rows)
            model.update(zip(ids, rows))
    clone, clone_model = copy.deepcopy(row_map), dict(model)
    # Rewrites of held ids go in place: neither side may see the other's.
    held = sorted(model)[:3]
    for target, target_model in ((clone, clone_model), (row_map, model)):
        ids = held + rewrite
        rows = rows_of(len(ids))
        target.write(_keys(ids, False), rows)
        target_model.update(zip(ids, rows))
        _check(row_map, model)
        _check(clone, clone_model)
        _read(row_map, model, ids, True)
        _read(clone, clone_model, ids, True)


def test_growth_past_the_quarter_boundary():
    row_map, model, rows_of = RowMap(DIM), {}, Rows()
    regrown, block = 0, row_map._rows
    for step in range(40):  # one new id and one rewrite per write
        ids = [step, step // 2]
        rows = rows_of(2)
        row_map.write(np.array(ids, np.int64), rows)
        model.update(zip(ids, rows))
        _check(row_map, model)
        regrown += row_map._rows is not block
        block = row_map._rows
    # 40 ids held: the row array grew by a quarter at a time, not per id.
    assert 40 <= len(row_map._rows) < 50
    assert regrown == 16
