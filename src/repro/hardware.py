"""Hardware platform specification (paper Table 1).

The paper's testbed is an Intel Xeon Gold 6252 CPU paired with an NVIDIA T4
GPU.  All timing in this reproduction is derived from the constants below, so
the entire platform is described in one place and can be swapped for
sensitivity studies (e.g. a faster interconnect or a wider GPU).

Times are expressed in **seconds**, sizes in **bytes**, bandwidths in
**bytes/second**, and compute rates in **FLOP/s** throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

US = 1e-6
NS = 1e-9


@dataclass(frozen=True)
class CpuSpec:
    """CPU-side platform constants (Table 1, left column)."""

    name: str = "Intel Xeon Gold 6252"
    cores: int = 64
    dram_capacity: int = 512 * GIB
    #: Peak DRAM bandwidth; the paper quotes 60 GB/s.
    dram_bandwidth: float = 60e9
    #: Fraction of peak DRAM bandwidth achieved by random embedding gathers.
    #: Sparse lookups thrash the CPU caches (paper §2.1), so the effective
    #: bandwidth is far below peak.
    dram_random_efficiency: float = 0.12
    #: Average latency of one random DRAM access (one hash-probe hop).
    dram_access_latency: float = 120 * NS
    #: Host hash-table probes per lookup (open addressing, avg. chain).
    host_hash_probes: float = 2.5
    #: Number of worker threads concurrently issuing host lookups.
    lookup_threads: int = 2


@dataclass(frozen=True)
class GpuSpec:
    """GPU-side platform constants (Table 1, right column: NVIDIA T4)."""

    name: str = "NVIDIA T4"
    cuda_cores: int = 2560
    warp_size: int = 32
    #: Maximum resident threads across the whole device.
    max_resident_threads: int = 40 * 1024
    hbm_capacity: int = 15 * GIB
    #: Peak HBM bandwidth; the paper quotes 300 GB/s.
    hbm_bandwidth: float = 300e9
    #: Fraction of peak HBM bandwidth achieved by coalesced streaming copies.
    hbm_stream_efficiency: float = 0.75
    #: Fraction of peak HBM bandwidth achieved by random 128 B transactions
    #: (dependent hash-probe chains and per-warp locked copies).
    hbm_random_efficiency: float = 0.06
    #: Size of one coalesced global-memory transaction.
    transaction_bytes: int = 128
    #: Peak FP32 throughput (T4: ~8.1 TFLOP/s).
    peak_flops: float = 8.1e12
    #: Achieved fraction of peak FLOPs for dense GEMM-ish kernels (cuDNN).
    flops_efficiency: float = 0.55
    #: Latency of one global-memory access as seen by a dependent warp.
    global_latency: float = 400 * NS


@dataclass(frozen=True)
class InterconnectSpec:
    """Host <-> device interconnect constants (PCIe gen3 x16 on the testbed)."""

    pcie_bandwidth: float = 12e9
    #: Fixed overhead of one cudaMemcpy call (paper §4 quotes 6-7 us).
    cudamemcpy_overhead: float = 6.5 * US
    #: Fixed overhead of one GDRCopy small copy (paper §4 quotes ~0.1 us).
    gdrcopy_overhead: float = 0.1 * US
    #: GDRCopy is a CPU-driven mapped write; past this size plain cudaMemcpy
    #: wins and callers should switch (the library picks automatically).
    gdrcopy_crossover_bytes: int = 64 * KIB


@dataclass(frozen=True)
class KernelCostSpec:
    """Constants of the kernel launch / synchronisation cost model.

    These drive the *maintenance time* the paper measures in Figure 4:
    CPU-side launching, context initialisation, synchronisation, and the
    small metadata copies around each kernel.
    """

    #: CPU time consumed by one kernel launch (driver call + arg marshalling).
    launch_overhead: float = 4.0 * US
    #: CPU time for one stream/event synchronisation.
    sync_overhead: float = 2.0 * US
    #: Fixed device-side startup cost of any kernel (block scheduling ramp).
    kernel_fixed_cost: float = 0.3 * US
    #: CPU time to record/dispatch work on an extra CUDA stream.
    stream_dispatch_overhead: float = 0.3 * US


@dataclass(frozen=True)
class HardwareSpec:
    """The full simulated platform (paper Table 1)."""

    cpu: CpuSpec = field(default_factory=CpuSpec)
    gpu: GpuSpec = field(default_factory=GpuSpec)
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)
    kernel: KernelCostSpec = field(default_factory=KernelCostSpec)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on physically meaningless constants."""
        checks = [
            (self.cpu.dram_bandwidth > 0, "dram_bandwidth must be positive"),
            (self.gpu.hbm_bandwidth > 0, "hbm_bandwidth must be positive"),
            (self.gpu.warp_size > 0, "warp_size must be positive"),
            (self.gpu.transaction_bytes > 0, "transaction_bytes must be positive"),
            (0 < self.cpu.dram_random_efficiency <= 1, "dram_random_efficiency in (0, 1]"),
            (0 < self.gpu.hbm_stream_efficiency <= 1, "hbm_stream_efficiency in (0, 1]"),
            (0 < self.gpu.hbm_random_efficiency <= 1, "hbm_random_efficiency in (0, 1]"),
            (self.interconnect.pcie_bandwidth > 0, "pcie_bandwidth must be positive"),
            (self.kernel.launch_overhead >= 0, "launch_overhead must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


def default_platform() -> HardwareSpec:
    """The paper's testbed (Table 1): Xeon Gold 6252 + NVIDIA T4."""
    spec = HardwareSpec()
    spec.validate()
    return spec
