"""The CPU-DRAM embedding store: all tables of a model, plus its cost model.

This is the lower layer of the two-layer architecture (paper §2.2): the GPU
cache answers hits; misses are indexed and copied out of this store at DRAM
speed, and the resulting embeddings travel over PCIe into the output matrix.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from ..hashindex.host_hash import HostQueryCost, host_query_cost
from ..hardware import HardwareSpec
from ..obs.registry import Observable
from .embedding_table import EmbeddingTable
from .table_spec import TableSpec, total_param_bytes


class StoreQueryResult:
    """Result of one batched host-store query."""

    __slots__ = ("vectors", "cost", "degraded_keys")

    def __init__(
        self, vectors: np.ndarray, cost: HostQueryCost, degraded_keys: int = 0
    ):
        self.vectors = vectors
        self.cost = cost
        #: Keys answered with a degraded (stale or default) vector because
        #: the tier below could not deliver them; 0 from a store holding
        #: every row.
        self.degraded_keys = degraded_keys


def pack_global_key(table_id, feature_id):
    """One flat ``uint64`` namespace over (table, feature): ``table << 48 |
    feature``.

    ``feature_id`` is one id or a ``uint64`` array of them; ``table_id``
    is one table or (as ``uint64``) one per id.
    """
    return (table_id << 48) | feature_id


def unpack_global_key(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(table ids, feature ids)`` of a ``uint64`` array of packed keys."""
    return keys >> np.uint64(48), keys & np.uint64((1 << 48) - 1)


class HostStore(Observable, abc.ABC):
    """What the GPU cache needs of the host store under it (paper §5:
    the tiered store "exposes the same batched query interface").  Holds
    the table specs, densely numbered from 0, the platform and the corpus
    sizes; the hooks below are no-ops for a store with no work for them.
    """

    def __init__(self, specs: Sequence[TableSpec], hw: HardwareSpec):
        if not specs:
            raise WorkloadError("host store needs at least one table")
        if [spec.table_id for spec in specs] != list(range(len(specs))):
            raise WorkloadError("table specs must be densely numbered from 0")
        self.specs = list(specs)
        self.hw = hw
        self._corpus = np.array(
            [spec.corpus_size for spec in self.specs], dtype=np.uint64
        )

    @property
    def num_tables(self) -> int:
        return len(self.specs)

    def spec_of(self, table_id: int) -> TableSpec:
        return self.specs[table_id]

    # hot-path: vectorized
    def _query_by_table(
        self,
        table_ids: np.ndarray,
        feature_ids: np.ndarray,
        indexed_mask: Optional[np.ndarray],
        rows: Callable[..., Tuple[np.ndarray, float, int]],
    ) -> StoreQueryResult:
        """The ``query_many`` of both host stores: a mixed-table batch
        answered table by table.

        Sorts the batch by table once (stable: each table's ids keep their
        relative order) and checks it before ``rows`` runs: one dimension
        across its tables, every id inside its table's corpus size.
        ``rows`` gets the sorted ``uint64`` tables and ids, ``(table_id,
        start, stop)`` of each table's run and the dimension, and returns the
        rows in that order, the remote time they cost and how many were
        degraded.  The answer is un-permuted once; its cost indexes the keys
        ``indexed_mask`` does not mark as already located, and streams every
        row out of DRAM.
        """
        table_ids = np.asarray(table_ids)
        feature_ids = np.asarray(feature_ids, dtype=np.uint64)
        if table_ids.shape != feature_ids.shape:
            raise WorkloadError("query_many: shape mismatch")
        n = len(table_ids)
        if n == 0:
            return StoreQueryResult(
                np.zeros((0, 0), np.float32), host_query_cost(self.hw, 0, 0)
            )
        order = table_ids.argsort(kind="stable")
        tables = table_ids[order].astype(np.uint64)
        ids = feature_ids[order]
        cuts = ((tables[1:] != tables[:-1]).nonzero()[0] + 1).tolist()
        starts, stops = [0] + cuts, cuts + [n]
        segments = list(zip(tables[starts].tolist(), starts, stops))
        dims = {self.specs[t].dim for t, _, _ in segments}
        if len(dims) != 1:
            raise WorkloadError("query_many: tables must share one dimension")
        dim = dims.pop()
        beyond = ids >= self._corpus[tables]
        if np.count_nonzero(beyond):
            raise WorkloadError(
                f"table {int(tables[beyond.argmax()])}: feature id beyond "
                "corpus size"
            )
        sorted_rows, remote_time, degraded = rows(tables, ids, segments, dim)
        vectors = np.empty(sorted_rows.shape, sorted_rows.dtype)
        vectors[order] = sorted_rows

        if indexed_mask is None:
            keys_to_index = n
        else:
            keys_to_index = n - int(np.count_nonzero(indexed_mask))
        cost = host_query_cost(self.hw, keys_to_index, n * dim * 4)
        if remote_time:
            cost = HostQueryCost(
                index_time=cost.index_time,
                copy_time=cost.copy_time + remote_time,
            )
        return StoreQueryResult(vectors=vectors, cost=cost, degraded_keys=degraded)

    @abc.abstractmethod
    def query_many(
        self, table_ids: np.ndarray, feature_ids: np.ndarray,
        indexed_mask: Optional[np.ndarray] = None,
    ) -> StoreQueryResult:
        """The rows of a batch of (table, id) pairs of one dimension and
        their cost; ``indexed_mask`` marks keys the caller located."""

    @abc.abstractmethod
    def apply_update(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Write one table's refreshed rows through; returns how many."""

    def advance_to(self, now: float) -> None:
        """Set the simulated time later queries read faults at."""

    def fault_windows(self) -> List[tuple]:
        """Merged ``(start, end)`` windows of the faults the store sees."""
        return []

    def register_pointer_invalidator(
        self, invalidator: Callable[[np.ndarray], None]
    ) -> None:
        """Take a callable for the packed keys of rows leaving the store."""

    def written_rows(self) -> Dict[int, tuple]:
        """The refreshed rows the store keeps, ``table -> (ids, rows)``,
        for a snapshot to carry (none when its writes reach only a cache)."""
        return {}


class EmbeddingStore(HostStore):
    """All embedding tables of one model, resident in host DRAM at fp32
    (bit-exact against the reference vectors until refreshed)."""

    def __init__(self, specs: Sequence[TableSpec], hw: HardwareSpec):
        super().__init__(specs, hw)
        self._tables: Dict[int, EmbeddingTable] = {
            spec.table_id: EmbeddingTable(spec) for spec in specs
        }

    @property
    def param_bytes(self) -> int:
        """Aggregate parameter size (Table 2's "Param Size" column)."""
        return total_param_bytes(self.specs)

    def table(self, table_id: int) -> EmbeddingTable:
        return self._tables[table_id]

    def query_many(
        self,
        table_ids: np.ndarray,
        feature_ids: np.ndarray,
        indexed_mask: np.ndarray = None,
    ) -> StoreQueryResult:
        """The store's lookup threads drain a whole miss batch together,
        so its cost is accounted jointly."""
        return self._query_by_table(
            table_ids, feature_ids, indexed_mask, self._gather
        )

    # hot-path: vectorized
    def _gather(self, tables, ids, segments, dim):
        """Every table's run of a sorted batch, gathered into one buffer."""
        ids = ids.view(np.int64)
        gathered = np.empty((len(ids), dim), dtype=np.float32)
        for t, start, stop in segments:  # lint: allow-loop (per table in the batch)
            self._tables[t]._gather_into(ids[start:stop], gathered[start:stop])
        return gathered, 0.0, 0

    def apply_update(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Into the table's overlay (see :class:`EmbeddingTable`)."""
        return self._tables[table_id].update_rows(feature_ids, vectors)

    def written_rows(self) -> Dict[int, tuple]:
        """Each table's overlay, copied (ids sorted)."""
        return {t: table.written() for t, table in self._tables.items()}
