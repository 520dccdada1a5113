"""DRAM cost model of the embedding store's host hash-table lookups.

The embedding store keeps every table as a host hash table (paper §2.1).
Random lookups miss the CPU caches and are bounded by DRAM's effective
random-access bandwidth — the scarcity that motivates GPU caching in the
first place.  :func:`host_query_cost` reports the host time a batched query
costs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..hardware import HardwareSpec


@dataclass(frozen=True)
class HostQueryCost:
    """Host-side cost of one batched DRAM operation."""

    #: CPU time spent chasing hash probes (latency-bound, multi-threaded).
    index_time: float
    #: CPU/DRAM time streaming the embedding payload out of DRAM.
    copy_time: float

    @property
    def total(self) -> float:
        return self.index_time + self.copy_time


def host_query_cost(
    hw: HardwareSpec, num_keys: int, payload_bytes: int, probes_per_key: float = None
) -> HostQueryCost:
    """DRAM cost of indexing ``num_keys`` and streaming ``payload_bytes``.

    Indexing is latency-bound: each probe is a dependent random DRAM access,
    overlapped across the store's lookup threads.  The payload copy runs at
    DRAM's random-gather effective bandwidth.
    """
    cpu = hw.cpu
    if probes_per_key is None:
        probes_per_key = cpu.host_hash_probes
    serial_accesses = num_keys * probes_per_key / cpu.lookup_threads
    index_time = serial_accesses * cpu.dram_access_latency
    copy_time = payload_bytes / (cpu.dram_bandwidth * cpu.dram_random_efficiency)
    return _cost_of(index_time, copy_time)


#: ``HostQueryCost`` by value: the cost is frozen, and batches repeat a
#: small set of key counts, so a repeat builds no new object.
_cost_of = functools.lru_cache(maxsize=4096)(HostQueryCost)
