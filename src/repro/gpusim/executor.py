"""The executor: drives CPU and stream timelines through a workload.

The executor models the interaction the paper cares about:

* **Kernel launch** consumes CPU time (maintenance) and enqueues device work
  on a stream.  A kernel starts when both the launch has completed *and* the
  stream's previous work has drained.
* **Stream synchronisation** blocks the CPU until a stream drains, charging
  the sync call itself to maintenance.
* **Host work** (hash lookups in DRAM, dedup, encoding) advances only the
  CPU timeline, so it naturally overlaps with in-flight device work — this
  is exactly the overlap Fleche's decoupled workflow exploits (§3.3).
* **Copies** between host and device consume CPU overhead plus wire time;
  small metadata copies are maintenance, bulk embedding transfers are
  execution time (``DRAM_COPY``).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import SimulationError
from ..hardware import HardwareSpec
from .clock import Timeline
from .kernel import KernelSpec, kernel_execution_time
from .stats import Category, TimeBreakdown
from .transfer import CopyEngine, CopyMethod


class Stream:
    """One CUDA stream: an in-order device work queue."""

    __slots__ = ("name", "ready_time")

    def __init__(self, name: str):
        self.name = name
        #: Instant at which all previously enqueued work has drained.
        self.ready_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stream({self.name!r}, ready={self.ready_time:.9f})"


class SharedResource:
    """An exclusive serial resource shared by concurrent execution contexts.

    The platform has exactly one PCIe link and the serving loop exactly one
    host thread; when several in-flight batches want the same one, their
    occupancies must serialise.  A :class:`SharedResource` is the global
    timeline of one such resource: ``occupy`` grants a contiguous interval
    no earlier than both the caller's ready instant and the instant the
    resource frees up.
    """

    __slots__ = ("name", "free_at", "busy_time", "grants")

    def __init__(self, name: str):
        self.name = name
        #: Instant at which the last granted interval ends.
        self.free_at = 0.0
        #: Total granted occupancy (for utilisation reporting).
        self.busy_time = 0.0
        #: Number of granted intervals.
        self.grants = 0

    def next_start(self, earliest: float) -> float:
        """Earliest instant an occupancy could start from ``earliest``."""
        return max(earliest, self.free_at)

    def occupy(self, start: float, end: float) -> float:
        """Occupy the resource for ``[start, end)``.

        ``start`` must not precede ``free_at`` (callers reserve via
        :meth:`next_start` first).  The interval is end-anchored — callers
        pass the exact completion instant they computed, so downstream
        ``next_start`` comparisons against batch finish times stay
        bit-exact.  Returns ``end``.
        """
        if end < start - 1e-15:
            raise SimulationError(
                f"resource {self.name!r}: occupancy ends at {end} before "
                f"its start {start}"
            )
        if start < self.free_at - 1e-15:
            raise SimulationError(
                f"resource {self.name!r}: occupancy at {start} precedes "
                f"free_at {self.free_at}"
            )
        self.free_at = max(self.free_at, end)
        self.busy_time += max(0.0, end - start)
        self.grants += 1
        return end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SharedResource({self.name!r}, free_at={self.free_at:.9f})"


class Executor:
    """Simulated execution context for one inference worker.

    One executor corresponds to the single CPU thread that drives inference
    plus the set of CUDA streams it uses.  All durations it accounts are
    recorded into a :class:`TimeBreakdown`.
    """

    def __init__(self, hw: HardwareSpec):
        self.hw = hw
        self.cpu = Timeline("cpu")
        self.copy_engine = CopyEngine(hw)
        self.stats = TimeBreakdown()
        self._streams: Dict[str, Stream] = {}
        self.default_stream = self.stream("stream0")

    # ------------------------------------------------------------------ streams

    def stream(self, name: str) -> Stream:
        """Return the named stream, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        created = Stream(name)
        self._streams[name] = created
        return created

    # ------------------------------------------------------------------ kernels

    def launch(
        self,
        spec: KernelSpec,
        stream: Optional[Stream] = None,
        category: Category = Category.CACHE_INDEX,
        launch_cost: Optional[float] = None,
    ) -> float:
        """Launch a kernel asynchronously; returns its completion instant.

        The CPU pays launch overhead (maintenance) and continues; the device
        work is appended to the stream's queue.  ``launch_cost`` overrides
        the per-kernel CPU cost — CUDA-graph replays use this to model the
        amortised dispatch of captured nodes.
        """
        target = stream or self.default_stream
        if launch_cost is None:
            launch_cost = self.hw.kernel.launch_overhead
            if target is not self.default_stream:
                launch_cost += self.hw.kernel.stream_dispatch_overhead
        self.cpu.advance(launch_cost)
        self.stats.add(Category.MAINTENANCE, launch_cost)
        self.stats.count("kernel_launches")
        self.stats.count(f"kernel:{spec.name}")

        exec_time = kernel_execution_time(spec, self.hw)
        start = max(self.cpu.now, target.ready_time)
        target.ready_time = start + exec_time
        self.stats.add(category, exec_time)
        return target.ready_time

    def synchronize(self, stream: Optional[Stream] = None) -> None:
        """Block the CPU until ``stream`` (or all streams) drains."""
        self.stats.count("synchronizations")
        if stream is not None:
            self.cpu.advance_to(stream.ready_time)
        else:
            for s in self._streams.values():
                self.cpu.advance_to(s.ready_time)
        self.cpu.advance(self.hw.kernel.sync_overhead)
        self.stats.add(Category.MAINTENANCE, self.hw.kernel.sync_overhead)

    # ------------------------------------------------------------------ host work

    def host_work(self, duration: float, category: Category) -> None:
        """Advance the CPU timeline by ``duration`` of host computation."""
        if duration < 0:
            raise SimulationError(f"negative host work duration {duration}")
        self.cpu.advance(duration)
        self.stats.add(category, duration)

    # ------------------------------------------------------------------ copies

    def copy(
        self,
        nbytes: int,
        category: Category,
        method: CopyMethod = CopyMethod.AUTO,
        async_stream: Optional[Stream] = None,
    ) -> None:
        """Copy ``nbytes`` between host and device.

        Synchronous copies (``async_stream is None``) block the CPU for
        overhead + wire time.  Asynchronous copies charge only the call
        overhead to the CPU and queue the wire time on the stream.
        """
        cost = self.copy_engine.cost(nbytes, method)
        self.stats.count("copies")
        if async_stream is None:
            self.cpu.advance(cost.total)
            self.stats.add(Category.MAINTENANCE, cost.overhead)
            self.stats.add(category, cost.wire_time)
        else:
            self.cpu.advance(cost.overhead)
            self.stats.add(Category.MAINTENANCE, cost.overhead)
            start = max(self.cpu.now, async_stream.ready_time)
            async_stream.ready_time = start + cost.wire_time
            self.stats.add(category, cost.wire_time)

    # ------------------------------------------------------------------ epochs

    def elapsed(self) -> float:
        """Wall-clock so far: the CPU joined with every stream."""
        device_latest = max(
            (s.ready_time for s in self._streams.values()), default=0.0
        )
        return max(self.cpu.now, device_latest)

    def drain(self) -> float:
        """Synchronise every stream and return the final wall-clock."""
        self.synchronize(None)
        return self.cpu.now

    def reset(self) -> None:
        """Rewind all clocks and statistics (between measurement windows)."""
        self.cpu.reset()
        for s in self._streams.values():
            s.ready_time = 0.0
        self.stats.reset()
