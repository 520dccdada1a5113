"""Persistent-kernel serving: the GPU-KVS alternative (paper §5).

GPU-resident key-value stores avoid launch overhead with a *persistent
kernel*: a never-terminating kernel polls a request queue and serves
lookups with zero launch cost.  The paper rejects this for DLRM inference
because the resident kernel permanently occupies streaming multiprocessors,
slowing the dense MLP computation that must share the GPU.

This module models exactly that tradeoff so the rejection is measurable:
queries skip launch/sync maintenance entirely, but every *other* kernel on
the device runs with only the remaining SM fraction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ConfigError
from ..hardware import HardwareSpec

#: Polling latency before a newly arrived request is picked up.
POLL_LATENCY = 2e-6


@dataclass(frozen=True)
class PersistentKernelConfig:
    """Resource footprint of the resident serving kernel."""

    #: Fraction of the GPU's SMs pinned by the persistent kernel.
    sm_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.sm_fraction < 1.0:
            raise ConfigError("sm_fraction must be in (0, 1)")


def degraded_platform(hw: HardwareSpec, config: PersistentKernelConfig) -> HardwareSpec:
    """The platform as seen by *other* kernels while the PK is resident.

    Compute throughput and resident-thread capacity shrink by the pinned
    SM fraction; memory bandwidth is shared too, though less than
    proportionally (the PK is mostly idle-polling between requests).
    """
    remaining = 1.0 - config.sm_fraction
    gpu = dataclasses.replace(
        hw.gpu,
        peak_flops=hw.gpu.peak_flops * remaining,
        max_resident_threads=int(hw.gpu.max_resident_threads * remaining),
        hbm_stream_efficiency=hw.gpu.hbm_stream_efficiency
        * (1.0 - 0.3 * config.sm_fraction),
    )
    return dataclasses.replace(hw, gpu=gpu)


def query_service_time(
    hw: HardwareSpec,
    config: PersistentKernelConfig,
    num_keys: int,
    dim: int,
) -> float:
    """Cache-query time under the persistent kernel (no launch, no sync).

    The PK serves lookups with its pinned SMs: probe traffic plus the
    gather, at the PK's share of memory bandwidth, after the poll latency.
    """
    if num_keys <= 0:
        return POLL_LATENCY
    row_bytes = -(-dim * 4 // hw.gpu.transaction_bytes) * hw.gpu.transaction_bytes
    probe_bytes = num_keys * hw.gpu.transaction_bytes
    copy_bytes = 2 * num_keys * row_bytes
    random_bw = hw.gpu.hbm_bandwidth * hw.gpu.hbm_random_efficiency
    stream_bw = (
        hw.gpu.hbm_bandwidth * hw.gpu.hbm_stream_efficiency * config.sm_fraction
    )
    return (
        POLL_LATENCY
        + probe_bytes / random_bw
        + copy_bytes / max(stream_bw, 1.0)
    )
