"""Host (CPU-DRAM) embedding store.

The full set of embedding tables lives in host DRAM (paper §2.2).  Each
table is a host hash table mapping feature IDs to dense float32 vectors;
the store exposes batched queries with a DRAM cost model that captures the
bandwidth scarcity motivating the GPU cache.
"""

from .table_spec import TableSpec, make_table_specs
from .embedding_table import EmbeddingTable
from .store import EmbeddingStore, HostStore, StoreQueryResult

__all__ = [
    "TableSpec",
    "make_table_specs",
    "EmbeddingTable",
    "EmbeddingStore",
    "HostStore",
    "StoreQueryResult",
]
