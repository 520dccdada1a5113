"""Kernel execution cost model.

A kernel's device time is modelled as a roofline over three resources:

* **streaming memory traffic** — coalesced reads/writes at HBM stream
  bandwidth;
* **random memory traffic** — hash-probe style 128 B transactions at the
  (much lower) random-access HBM bandwidth;
* **compute** — FLOPs at the achieved FP32 rate.

plus a fixed per-kernel startup cost and a latency term for dependent probe
chains when too few warps are resident to hide global-memory latency.

Coalescing is modelled explicitly: per-embedding traffic is rounded up to
whole 128 B transactions, which is why copying 16-dim and 32-dim embeddings
costs the same (both fit one transaction per warp) — the effect the paper
observes in Experiment #10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SimulationError
from ..hardware import HardwareSpec


def coalesced_bytes(logical_bytes: int, transaction_bytes: int) -> int:
    """Round one object's traffic up to whole memory transactions."""
    if logical_bytes <= 0:
        return 0
    transactions = -(-logical_bytes // transaction_bytes)  # ceil division
    return transactions * transaction_bytes


@dataclass(frozen=True)
class KernelSpec:
    """Work description of one kernel launch.

    Attributes:
        name: human-readable kernel identity (used in counters).
        threads: total launched threads (rounded up to warps internally).
        stream_bytes: coalesced streaming traffic (bulk copies), in bytes.
        random_transactions: count of independent random 128 B transactions
            (hash probes, pointer chases).
        dependent_hops: average *serial* global-memory hops each thread must
            make (e.g. walking a slab list); adds a latency term when
            occupancy cannot hide it.
        flops: floating-point operations executed.
    """

    name: str
    threads: int
    stream_bytes: int = 0
    random_transactions: int = 0
    dependent_hops: float = 0.0
    flops: float = 0.0

    def __post_init__(self) -> None:
        if self.threads < 0:
            raise SimulationError(f"kernel {self.name!r}: negative thread count")
        if self.stream_bytes < 0 or self.random_transactions < 0 or self.flops < 0:
            raise SimulationError(f"kernel {self.name!r}: negative work amount")

    def charge(self, hw: HardwareSpec) -> tuple:
        """``(device time on hw, launch-counter name)``, computed once per
        platform: a memoized spec is launched many times."""
        memo = self.__dict__.get("_charge")
        if memo is None or (memo[0] is not hw and memo[0] != hw):
            memo = (hw, kernel_execution_time(self, hw), f"kernel:{self.name}")
            object.__setattr__(self, "_charge", memo)
        return memo


def kernel_execution_time(spec: KernelSpec, hw: HardwareSpec) -> float:
    """Device time of one kernel under the roofline model.

    The returned time excludes launch overhead (that is CPU-side maintenance,
    accounted by the executor).
    """
    gpu = hw.gpu
    if spec.threads == 0:
        return 0.0

    stream_time = spec.stream_bytes / (gpu.hbm_bandwidth * gpu.hbm_stream_efficiency)
    random_bytes = spec.random_transactions * gpu.transaction_bytes
    random_time = random_bytes / (gpu.hbm_bandwidth * gpu.hbm_random_efficiency)
    compute_time = spec.flops / (gpu.peak_flops * gpu.flops_efficiency)

    # Latency term: dependent probe chains serialise unless enough warps are
    # resident to overlap them.  ``waves`` counts how many rounds of resident
    # thread groups the launch needs.
    latency_time = 0.0
    if spec.dependent_hops > 0:
        waves = math.ceil(spec.threads / gpu.max_resident_threads)
        latency_time = waves * spec.dependent_hops * gpu.global_latency

    busy = max(stream_time + random_time, compute_time, latency_time)
    return hw.kernel.kernel_fixed_cost + busy
