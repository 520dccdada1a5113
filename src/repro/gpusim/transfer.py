"""Host <-> device copy cost model.

Two copy mechanisms exist on the testbed (paper §4):

* ``cudaMemcpy`` — the vanilla driver path: ~6.5 us of fixed overhead per
  call plus PCIe streaming time.  Fine for bulk embedding transfers, ruinous
  for the many tiny metadata copies a cache query performs.
* ``GDRCopy`` — CPU-driven mapped writes over NVIDIA GPUDirect RDMA: ~0.1 us
  fixed overhead, ideal for small copies (args arrays, prefix-sum arrays,
  missing-key counts).

:class:`CopyEngine` picks the cheaper mechanism automatically unless the
caller forces one; this mirrors both Fleche and the GDRCopy-enhanced
HugeCTR baseline the paper compares against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..errors import SimulationError
from ..hardware import HardwareSpec


class CopyMethod(str, enum.Enum):
    """Which host/device copy mechanism to use."""

    CUDAMEMCPY = "cudamemcpy"
    GDRCOPY = "gdrcopy"
    AUTO = "auto"


@dataclass(frozen=True)
class CopyCost:
    """Split cost of one host/device copy."""

    #: Fixed per-call overhead — charged to the CPU thread (maintenance for
    #: metadata copies).
    overhead: float
    #: Streaming time over the interconnect.
    wire_time: float
    method: CopyMethod

    @property
    def total(self) -> float:
        return self.overhead + self.wire_time


class CopyEngine:
    """Computes host/device transfer costs under the platform spec."""

    def __init__(self, hw: HardwareSpec):
        self._hw = hw

    def resolve_method(self, nbytes: int, method: CopyMethod) -> CopyMethod:
        """Pick the concrete mechanism for a copy of ``nbytes``."""
        if method is not CopyMethod.AUTO:
            return method
        if nbytes <= self._hw.interconnect.gdrcopy_crossover_bytes:
            return CopyMethod.GDRCOPY
        return CopyMethod.CUDAMEMCPY

    def split(
        self, nbytes: int, method: CopyMethod = CopyMethod.AUTO
    ) -> Tuple[float, float, CopyMethod]:
        """``(overhead, wire_time, method)`` of copying ``nbytes``: what
        :meth:`cost` holds, without building a :class:`CopyCost` (the
        executor's plan path charges copies from it)."""
        if nbytes < 0:
            raise SimulationError(f"cannot copy a negative byte count ({nbytes})")
        ic = self._hw.interconnect
        resolved = self.resolve_method(nbytes, method)
        if resolved is CopyMethod.GDRCOPY:
            overhead = ic.gdrcopy_overhead
        else:
            overhead = ic.cudamemcpy_overhead
        return overhead, nbytes / ic.pcie_bandwidth, resolved

    def cost(self, nbytes: int, method: CopyMethod = CopyMethod.AUTO) -> CopyCost:
        """Cost of copying ``nbytes`` between host and device."""
        overhead, wire_time, resolved = self.split(nbytes, method=method)
        return CopyCost(overhead=overhead, wire_time=wire_time, method=resolved)
