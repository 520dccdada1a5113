"""The CPU-DRAM embedding store: all tables of a model, plus its cost model.

This is the lower layer of the two-layer architecture (paper §2.2): the GPU
cache answers hits; misses are indexed and copied out of this store at DRAM
speed, and the resulting embeddings travel over PCIe into the output matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import WorkloadError
from ..hashindex.host_hash import HostQueryCost, host_query_cost
from ..hardware import HardwareSpec
from .embedding_table import EmbeddingTable
from .table_spec import TableSpec, total_param_bytes


@dataclass(frozen=True)
class StoreQueryResult:
    """Result of one batched host-store query."""

    vectors: np.ndarray
    cost: HostQueryCost


class EmbeddingStore:
    """All embedding tables of one model, resident in host DRAM at fp32
    (bit-exact against the reference vectors)."""

    def __init__(self, specs: Sequence[TableSpec], hw: HardwareSpec):
        if not specs:
            raise WorkloadError("embedding store needs at least one table")
        ids = [spec.table_id for spec in specs]
        if ids != list(range(len(specs))):
            raise WorkloadError("table specs must be densely numbered from 0")
        self.specs = list(specs)
        self.hw = hw
        self._tables: Dict[int, EmbeddingTable] = {
            spec.table_id: EmbeddingTable(spec) for spec in specs
        }
        self._corpus_sizes = np.array(
            [spec.corpus_size for spec in specs], dtype=np.uint64
        )

    # ------------------------------------------------------------------ info

    @property
    def num_tables(self) -> int:
        return len(self.specs)

    @property
    def param_bytes(self) -> int:
        """Aggregate parameter size (Table 2's "Param Size" column)."""
        return total_param_bytes(self.specs)

    def spec_of(self, table_id: int) -> TableSpec:
        return self.specs[table_id]

    def table(self, table_id: int) -> EmbeddingTable:
        return self._tables[table_id]

    # ------------------------------------------------------------------ query

    # hot-path: vectorized
    def query_many(
        self,
        table_ids: np.ndarray,
        feature_ids: np.ndarray,
        indexed_mask: np.ndarray = None,
    ) -> StoreQueryResult:
        """Fetch embeddings for a mixed batch of (table, id) pairs.

        All tables in the batch must share one dimension (callers group by
        dimension); the cost is accounted jointly, since the store's lookup
        threads drain the whole miss batch together.
        """
        table_ids = np.asarray(table_ids)
        feature_ids = np.asarray(feature_ids, dtype=np.uint64)
        if table_ids.shape != feature_ids.shape:
            raise WorkloadError("query_many: shape mismatch")
        if len(table_ids) == 0:
            zero = host_query_cost(self.hw, 0, 0)
            return StoreQueryResult(np.zeros((0, 0), np.float32), zero)

        # Group by table over one stable sort (each table's ids keep
        # their original relative order), gather every run into the
        # sorted buffer, un-permute once.
        order = np.argsort(table_ids, kind="stable")
        sorted_tables = table_ids[order]
        sorted_ids = feature_ids[order]
        if (sorted_ids >= self._corpus_sizes[sorted_tables]).any():
            raise WorkloadError("query_many: feature id beyond corpus size")
        sorted_ids = sorted_ids.view(np.int64)
        bounds = np.flatnonzero(np.concatenate(
            ([True], sorted_tables[1:] != sorted_tables[:-1])
        )).tolist()
        run_tables = sorted_tables[bounds].tolist()

        dims = {self.specs[t].dim for t in run_tables}
        if len(dims) != 1:
            raise WorkloadError("query_many: tables must share one dimension")
        dim = dims.pop()

        gathered = np.empty((len(order), dim), dtype=np.float32)
        payload = 0
        for t, start, stop in zip(  # lint: allow-loop (per table in the batch)
            run_tables, bounds, bounds[1:] + [len(order)]
        ):
            self._tables[t]._gather_into(
                sorted_ids[start:stop], gathered[start:stop]
            )
            payload += (stop - start) * self.specs[t].value_bytes
        vectors = np.empty_like(gathered)
        vectors[order] = gathered

        if indexed_mask is None:
            keys_to_index = len(table_ids)
        else:
            keys_to_index = int((~np.asarray(indexed_mask, bool)).sum())
        cost = host_query_cost(self.hw, keys_to_index, payload)
        return StoreQueryResult(vectors=vectors, cost=cost)

    # ---------------------------------------------------------------- refresh

    def update_rows(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Write refreshed rows through to one table.

        Returns the number of rows written.  (Deliberately *not* named
        ``apply_update`` — that name is the refresh-subscriber
        write-through protocol and would change how host stores are
        duck-typed by :mod:`repro.refresh`.)
        """
        return self._tables[table_id].update_rows(feature_ids, vectors)
