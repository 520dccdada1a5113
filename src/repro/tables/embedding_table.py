"""One host-resident embedding table.

Vectors are generated deterministically from (table_id, feature_id) the
first time they are touched, so the whole library can verify cached results
bit-exactly against the ground truth without materialising giant parameter
matrices up front.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..errors import ConfigError, WorkloadError
from .row_map import RowMap
from .table_spec import TableSpec

#: Largest corpus a table's bank can address (int32 row numbers).
MAX_CORPUS = np.iinfo(np.int32).max

_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64-style finalizer (vectorised)."""
    x = x.astype(np.uint64)
    x ^= x >> np.uint64(33)
    x *= _MIX1
    x ^= x >> np.uint64(33)
    x *= _MIX2
    x ^= x >> np.uint64(33)
    return x


# hot-path: vectorized
def reference_vectors(table_id, feature_ids: np.ndarray, dim: int) -> np.ndarray:
    """Ground-truth embeddings for (table, ids): deterministic, vectorised.

    Component ``j`` of the vector for feature ``f`` is a hash of
    ``(table_id, f, j)`` mapped to a uniform value in ``[-0.5, 0.5)``; the
    mapping is a pure function, so any two code paths that claim to return
    the embedding of the same ID can be compared bit-exactly.
    ``table_id`` is one table or an array of one table per id (the rows
    of a batch mixing tables, in one call).
    """
    feature_ids = np.asarray(feature_ids, dtype=np.uint64)
    tables = np.asarray(table_id, dtype=np.uint64)
    base = ((tables + np.uint64(1)) << np.uint64(48)) ^ feature_ids
    cols = np.arange(dim, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    mixed = _mix64(base[:, None] ^ cols[None, :])
    return (mixed.astype(np.float64) / 2.0**64 - 0.5).astype(np.float32)


class _RowBank:
    """Lazily filled direct-address reference rows of one table.

    Feature ids are dense in ``[0, corpus_size)``: ``row_of`` maps an id
    straight to its row in ``rows`` (-1 = not yet generated), replacing
    hash probing on the hot path.  Row numbers stay below
    ``corpus_size``, so they are int32 (every page of ``row_of`` is
    resident), and a corpus of 2**31 ids or more is refused.
    Device-side probing costs are modelled by
    :func:`~repro.hashindex.host_hash.host_query_cost`, not here.

    A bank holds nothing but reference rows, a pure function of its key,
    so every table over the same ``(table_id, corpus_size, dim)`` reads
    and fills the same one: :data:`_SHARED_BANKS` holds it weakly, each
    table using it strongly, so it lives exactly as long as something can
    read it.  A copy of a table reads the same bank.
    """

    __slots__ = ("row_of", "rows", "count", "__weakref__")

    def __init__(self, corpus_size: int, dim: int):
        if corpus_size > MAX_CORPUS:
            raise ConfigError(
                f"corpus size {corpus_size} exceeds {MAX_CORPUS}: bank row "
                "numbers are int32"
            )
        self.row_of = np.full(corpus_size, -1, dtype=np.int32)
        self.rows = np.zeros((0, dim), dtype=np.float32)
        self.count = 0

    def __deepcopy__(self, memo):
        return self

    def append(self, feature_ids: np.ndarray, new_rows: np.ndarray) -> int:
        """Store ``new_rows`` for sorted-unique absent ``feature_ids``;
        returns the first new row number."""
        start, stop = self.count, self.count + len(feature_ids)
        if self.rows.shape[0] < stop:
            grown = np.zeros(
                (max(stop, 64, self.rows.shape[0] * 2), self.rows.shape[1]),
                dtype=np.float32,
            )
            grown[:start] = self.rows[:start]
            self.rows = grown
        self.rows[start:stop] = new_rows
        self.row_of[feature_ids] = np.arange(start, stop, dtype=np.int32)
        self.count = stop
        return start


#: ``(table_id, corpus_size, dim) -> shared bank``.
_SHARED_BANKS: "weakref.WeakValueDictionary[tuple, _RowBank]" = (
    weakref.WeakValueDictionary()
)


class EmbeddingTable:
    """Host hash table of embedding vectors for one feature field.

    Reference rows are generated lazily, on an id's first access, into
    the shared bank of the table's spec (see :class:`_RowBank`), so
    replicas, crash rebuilds and fresh stores over one model never
    regenerate a row.  :meth:`update_rows` writes to the table's own
    overlay, a :class:`~repro.tables.row_map.RowMap` that reads lay over
    the bank: a write never changes what another table reads.  Rows are
    stored verbatim at fp32.
    """

    def __init__(self, spec: TableSpec):
        self.spec = spec
        key = (spec.table_id, spec.corpus_size, spec.dim)
        bank = _SHARED_BANKS.get(key)
        if bank is None:
            bank = _SHARED_BANKS[key] = _RowBank(spec.corpus_size, spec.dim)
        self._bank = bank
        self._overlay = RowMap(spec.dim)

    def __len__(self) -> int:
        """Rows generated so far in the bank this table reads."""
        return self._bank.count

    def _bounded(self, feature_ids: np.ndarray) -> np.ndarray:
        feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
        if np.count_nonzero(feature_ids >= self.spec.corpus_size):
            raise WorkloadError(
                f"table {self.spec.table_id}: feature id beyond corpus size "
                f"{self.spec.corpus_size}"
            )
        return feature_ids.view(np.int64)

    # hot-path: vectorized
    def _row_numbers(self, feature_ids: np.ndarray) -> np.ndarray:
        """Bank rows of in-range, non-empty ``feature_ids``, generating
        the reference rows of ids touched for the first time."""
        bank = self._bank
        rows = bank.row_of[feature_ids]
        absent = rows < 0
        if np.count_nonzero(absent):
            missing = np.unique(feature_ids[absent])
            start = bank.append(missing, reference_vectors(
                self.spec.table_id, missing, self.spec.dim
            ))
            rows[absent] = start + np.searchsorted(
                missing, feature_ids[absent]
            )
        return rows

    # hot-path: vectorized
    def _gather_into(self, feature_ids: np.ndarray, out: np.ndarray) -> None:
        """:meth:`lookup` into ``out`` for ids already :meth:`_bounded`."""
        rows = self._row_numbers(feature_ids)  # may regrow the bank first
        self._bank.rows.take(rows, axis=0, out=out)
        self._overlay.read_into(feature_ids, out)

    # hot-path: vectorized
    def lookup(self, feature_ids: np.ndarray) -> np.ndarray:
        """Return the embedding matrix for ``feature_ids`` (always hits)."""
        feature_ids = self._bounded(feature_ids)
        out = np.empty((len(feature_ids), self.spec.dim), dtype=np.float32)
        if len(feature_ids):
            self._gather_into(feature_ids, out)
        return out

    def written(self) -> tuple:
        """The overlay as ``(ids, rows)``, ids sorted (copies)."""
        return self._overlay.items()

    def update_rows(
        self, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Write-through: overwrite rows with refreshed model values.

        The rows go to the overlay, an id written twice keeping its last
        row.  Returns the number of rows written.
        """
        ids = self._bounded(feature_ids)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape != (len(ids), self.spec.dim):
            raise WorkloadError(
                f"table {self.spec.table_id}: update_rows shape mismatch"
            )
        self._overlay.write(ids, vectors)
        return len(ids)
