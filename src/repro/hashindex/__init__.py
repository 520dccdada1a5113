"""Hash index substrates.

* :mod:`repro.hashindex.slab_hash` — a GPU-resident dynamic slab hash
  (Ashkiani et al., IPDPS'18), the index HugeCTR and Fleche both build on.
  The data structure is fully functional (numpy-backed) and reports the
  memory-transaction counts its probes would generate so the timing model
  can charge them.
* :mod:`repro.hashindex.host_hash` — the cost model of the embedding
  store's host DRAM lookups.
"""

from .slab_hash import SlabHashIndex, ProbeStats, InsertResult, EMPTY_KEY

__all__ = [
    "SlabHashIndex",
    "ProbeStats",
    "InsertResult",
    "EMPTY_KEY",
]
