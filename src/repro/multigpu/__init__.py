"""Multi-GPU flat caching (the paper's §5 future-work direction).

The paper focuses on single-GPU caching because real hotspots fit one
GPU, and leaves multi-GPU caching — "expands the size of cache system and
removes the redundancy between GPUs with model parallelism" — to future
research.  This package builds that extension:

* :mod:`repro.multigpu.partition` — key partitioning strategies mapping
  flat keys onto GPUs (hash sharding, and table sharding for comparison);
* :mod:`repro.multigpu.model_parallel` — a model-parallel cluster of flat
  caches: each GPU owns one shard of the global key space (no duplicated
  entries), queries scatter to owners and gather results over the
  inter-GPU interconnect, whose cost is modelled explicitly.
"""

from .partition import HashPartitioner, TablePartitioner
from .model_parallel import MultiGpuFlatCache, InterconnectCost

__all__ = [
    "HashPartitioner",
    "TablePartitioner",
    "MultiGpuFlatCache",
    "InterconnectCost",
]
