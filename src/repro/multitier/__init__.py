"""Giant-model support: a three-tier parameter hierarchy (paper §5).

Industrial recommendation models can exceed a single machine's DRAM.  The
paper's §5 sketches the consequence: the local CPU-DRAM layer is no longer
an immutable copy of all parameters but becomes *another cache layer*, and
the full parameter set lives in a remote parameter server.  All of Fleche's
designs keep working, with one corner case to handle carefully — unified-
index pointers into DRAM may be invalidated when the DRAM layer evicts.

This package builds that deployment:

* :mod:`repro.multitier.remote_ps` — the remote parameter server with a
  network cost model (RTT + bandwidth);
* :mod:`repro.multitier.dram_cache` — the host-DRAM cache layer (LRU over
  host memory, filled from the remote PS), which *notifies invalidation
  listeners* when entries are evicted;
* :mod:`repro.multitier.hierarchy` — the assembled GPU-HBM -> CPU-DRAM ->
  remote-PS hierarchy, wiring DRAM evictions to unified-index pointer
  invalidation exactly as §5 prescribes.
"""

from .remote_ps import RemoteParameterServer
from .dram_cache import DramCacheLayer
from .hierarchy import TieredParameterStore

__all__ = [
    "RemoteParameterServer",
    "DramCacheLayer",
    "TieredParameterStore",
]
