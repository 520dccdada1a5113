"""Deterministic timing simulator for a CPU + GPU inference platform.

The simulator keeps two kinds of clocks: one CPU-thread timeline and one
timeline per CUDA stream.  Library code *actually executes* its data path in
numpy, and threads the corresponding hardware costs through an
:class:`~repro.gpusim.executor.Executor`, which advances the clocks according
to the cost model in :mod:`repro.hardware`.

The executor tags every accounted interval as either *maintenance* (kernel
launching, synchronisation, small metadata copies — the overhead class the
paper measures in Figure 4) or *execution* (in-kernel device time, bulk
transfers, host DRAM work), so the paper's breakdown figures fall directly
out of :class:`~repro.gpusim.stats.TimeBreakdown`.
"""

from .clock import Timeline
from .kernel import KernelSpec, kernel_execution_time
from .executor import Executor, Stream
from .stats import TimeBreakdown, Category
from .transfer import CopyEngine, CopyMethod

__all__ = [
    "Timeline",
    "KernelSpec",
    "kernel_execution_time",
    "Executor",
    "Stream",
    "TimeBreakdown",
    "Category",
    "CopyEngine",
    "CopyMethod",
]
