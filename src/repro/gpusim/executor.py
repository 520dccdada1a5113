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

A caller that knows a stage's operations up front hands them over as one
*plan* (:meth:`Executor.run`): a list of ``(LAUNCH, spec, stream,
category)``, ``(COPY, nbytes, category, async_stream)``, ``(HOST,
duration, category)`` and ``(SYNC, stream)`` tuples, charged in order
with the same float additions as the one-call-at-a-time methods.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import SimulationError
from ..hardware import HardwareSpec
from .clock import Timeline
from .kernel import KernelSpec
from .stats import Category, TimeBreakdown
from .transfer import CopyEngine, CopyMethod

#: Plan operation codes (see :meth:`Executor.run`).
LAUNCH, COPY, HOST, SYNC = range(4)


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
        #: Latest ready instant of any stream (stream ready times only
        #: grow between resets, so this is their running max).
        self._latest = 0.0
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
        _, exec_time, counter = spec.charge(self.hw)
        self.stats.count("kernel_launches")
        self.stats.count(counter)

        start = max(self.cpu.now, target.ready_time)
        target.ready_time = start + exec_time
        self._latest = max(self._latest, target.ready_time)
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
            self._latest = max(self._latest, async_stream.ready_time)
            self.stats.add(category, cost.wire_time)

    # ------------------------------------------------------------------ plans

    # hot-path: vectorized
    def run(self, plan) -> None:
        """Charge a stage's plan: the clock, every stream and the
        breakdown end exactly as :meth:`run_each` leaves them (same
        order, same float additions per clock and per category), at one
        call per stage.

        The CPU clock, the maintenance total and the event counts are
        folded in locals and written back once, even if an operation
        raises.
        """
        hw = self.hw
        kernel = hw.kernel
        split = self.copy_engine.split
        default = self.default_stream
        cpu = self.cpu
        seconds = self.stats.seconds
        counters = self.stats.counters
        maintenance = Category.MAINTENANCE
        now, active, latest = cpu._now, cpu._active, self._latest
        had_upkeep = maintenance in seconds
        upkeep = seconds.get(maintenance, 0.0)
        launches = copies = syncs = 0
        try:
            for op in plan:  # lint: allow-loop (per planned operation)
                kind = op[0]
                if kind == LAUNCH:
                    target = op[2] or default
                    cost = kernel.launch_overhead
                    if target is not default:
                        cost += kernel.stream_dispatch_overhead
                    now += cost
                    active += cost
                    upkeep += cost
                    launches += 1
                    _, spent, counter = op[1].charge(hw)
                    counters[counter] = counters.get(counter, 0) + 1
                    ready = target.ready_time
                    ready = (now if now >= ready else ready) + spent
                    target.ready_time = ready
                    if ready > latest:
                        latest = ready
                elif kind == COPY:
                    stream = op[3]
                    overhead, spent, _ = split(op[1])
                    copies += 1
                    if stream is None:
                        total = overhead + spent
                        now += total
                        active += total
                    else:
                        now += overhead
                        active += overhead
                        ready = stream.ready_time
                        ready = (now if now >= ready else ready) + spent
                        stream.ready_time = ready
                        if ready > latest:
                            latest = ready
                    upkeep += overhead
                elif kind == HOST:
                    spent = op[1]
                    if spent < 0:
                        raise SimulationError(
                            f"negative host work duration {spent}"
                        )
                    now += spent
                    active += spent
                else:  # SYNC
                    syncs += 1
                    until = latest if op[1] is None else op[1].ready_time
                    if until > now:
                        now = until
                    cost = kernel.sync_overhead
                    now += cost
                    active += cost
                    upkeep += cost
                    continue
                # The operation's own category: launch and copy charge it
                # after their maintenance part, host work alone.
                category = op[-1] if kind != COPY else op[2]
                if category is maintenance:
                    upkeep += spent
                    had_upkeep = True
                else:
                    seconds[category] = seconds.get(category, 0.0) + spent
        finally:
            cpu._now, cpu._active, self._latest = now, active, latest
            if had_upkeep or launches or copies or syncs:
                seconds[maintenance] = upkeep
            for event, count in (  # lint: allow-loop (three event kinds)
                ("kernel_launches", launches), ("copies", copies),
                ("synchronizations", syncs),
            ):
                if count:
                    counters[event] = counters.get(event, 0) + count

    def run_each(self, plan) -> None:
        """The reference for :meth:`run`: each operation through the
        one-call-at-a-time methods (what a wrapped executor observes)."""
        for op in plan:
            kind = op[0]
            if kind == LAUNCH:
                self.launch(op[1], stream=op[2], category=op[3])
            elif kind == COPY:
                self.copy(op[1], op[2], async_stream=op[3])
            elif kind == HOST:
                self.host_work(op[1], op[2])
            else:
                self.synchronize(op[1])

    # ------------------------------------------------------------------ epochs

    def elapsed(self) -> float:
        """Wall-clock so far: the CPU joined with every stream."""
        return max(self.cpu._now, self._latest)

    def drain(self) -> float:
        """Synchronise every stream and return the final wall-clock."""
        self.synchronize(None)
        return self.cpu.now

    def reset(self) -> None:
        """Rewind all clocks and statistics (between measurement windows)."""
        self.cpu.reset()
        for s in self._streams.values():
            s.ready_time = 0.0
        self._latest = 0.0
        self.stats.reset()
