"""Timeline tracing for the simulator.

A :class:`TraceRecorder` attached to an :class:`~repro.gpusim.Executor`
captures every accounted interval — kernel launches and executions, host
work, copies, synchronisations — as spans on named tracks (the CPU thread
and each CUDA stream).  Traces export to the Chrome trace-event JSON
format, so a batch's choreography (launch storms, overlap between the
DRAM query and the copy kernel, sync stalls) can be inspected in
``chrome://tracing`` / Perfetto.

Usage::

    executor = Executor(hw)
    recorder = TraceRecorder.attach(executor)
    layer.query(batch, executor)
    recorder.export_json("batch.trace.json")
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SimulationError
from .executor import Executor, Stream
from .kernel import KernelSpec, kernel_execution_time
from .stats import Category


@dataclass(frozen=True)
class Span:
    """One traced interval on a track.

    ``args`` optionally carries trace-event arguments (e.g. the
    ``request_id``/``dispatch`` stamps the request tracer uses to group
    one request's copies across replica tracks); arg-less spans
    serialise exactly as before, so existing traces stay byte-identical.
    """

    track: str
    name: str
    start: float
    duration: float
    category: str
    args: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimulationError(f"span {self.name!r} has negative duration")


def span_tracks(spans: List[Span]) -> List[str]:
    """Track names appearing in ``spans``, CPU first, then sorted."""
    seen = []
    for span in spans:
        if span.track not in seen:
            seen.append(span.track)
    seen.sort(key=lambda t: (t != "cpu", t))
    return seen


def chrome_trace(spans: List[Span]) -> dict:
    """Render spans as Chrome trace-event JSON (complete 'X' events).

    Shared by :class:`TraceRecorder` (executor-level spans) and
    :class:`~repro.obs.spans.SpanTracer` (serving-level stage spans), so
    both export the same format and open in ``chrome://tracing``/Perfetto.
    """
    track_ids = {name: i for i, name in enumerate(span_tracks(spans))}
    events = []
    for name, tid in track_ids.items():
        events.append({
            "ph": "M", "pid": 0, "tid": tid,
            "name": "thread_name", "args": {"name": name},
        })
    for span in spans:
        event = {
            "ph": "X",
            "pid": 0,
            "tid": track_ids[span.track],
            "name": span.name,
            "cat": span.category,
            # Trace format is microseconds.  ``+ 0.0`` collapses IEEE
            # negative zero (a zero-duration span ending at t=0 can carry
            # ``-0.0``) so equal values always serialise to equal bytes.
            "ts": span.start * 1e6 + 0.0,
            "dur": span.duration * 1e6 + 0.0,
        }
        if span.args:
            event["args"] = span.args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(spans: List[Span], path: str) -> str:
    """Write spans as Chrome trace JSON; returns the path.

    The output is byte-deterministic for a given span list — sorted keys,
    fixed indentation, trailing newline — including the edge cases of an
    empty span list (a valid trace with no events) and zero-duration
    spans (normalised to positive zero).
    """
    with open(path, "w") as f:
        json.dump(chrome_trace(spans), f, indent=1, sort_keys=True)
        f.write("\n")
    return path


@dataclass
class TraceRecorder:
    """Records executor activity as spans; see module docstring."""

    spans: List[Span] = field(default_factory=list)

    # ------------------------------------------------------------------ attach

    @classmethod
    def attach(cls, executor: Executor) -> "TraceRecorder":
        """Wrap the executor's accounting entry points with span capture.

        The wrapping is purely additive: timing behaviour is unchanged, the
        recorder only observes clock values around each call.
        """
        recorder = cls()
        original_launch = executor.launch
        original_host_work = executor.host_work
        original_copy = executor.copy
        original_synchronize = executor.synchronize

        def launch(spec: KernelSpec, stream: Optional[Stream] = None,
                   category: Category = Category.CACHE_INDEX,
                   launch_cost: Optional[float] = None) -> float:
            cpu_before = executor.cpu.now
            end = original_launch(spec, stream, category, launch_cost)
            target = stream or executor.default_stream
            exec_time = kernel_execution_time(spec, executor.hw)
            recorder.spans.append(Span(
                track="cpu", name=f"launch:{spec.name}",
                start=cpu_before, duration=executor.cpu.now - cpu_before,
                category="maintenance",
            ))
            recorder.spans.append(Span(
                track=f"stream:{target.name}", name=spec.name,
                start=end - exec_time, duration=exec_time,
                category=category.value,
            ))
            return end

        def host_work(duration: float, category: Category) -> None:
            start = executor.cpu.now
            original_host_work(duration, category)
            recorder.spans.append(Span(
                track="cpu", name=f"host:{category.value}",
                start=start, duration=duration, category=category.value,
            ))

        def copy(nbytes: int, category: Category,
                 async_stream: Optional[Stream] = None) -> None:
            start = executor.cpu.now
            original_copy(nbytes, category, async_stream)
            recorder.spans.append(Span(
                track="cpu", name=f"copy:{nbytes}B",
                start=start, duration=executor.cpu.now - start,
                category=category.value,
            ))

        def synchronize(stream: Optional[Stream] = None) -> None:
            start = executor.cpu.now
            original_synchronize(stream)
            recorder.spans.append(Span(
                track="cpu",
                name=f"sync:{stream.name if stream else 'all'}",
                start=start, duration=executor.cpu.now - start,
                category="maintenance",
            ))

        executor.launch = launch  # type: ignore[method-assign]
        executor.host_work = host_work  # type: ignore[method-assign]
        executor.copy = copy  # type: ignore[method-assign]
        executor.synchronize = synchronize  # type: ignore[method-assign]
        # A plan is replayed one operation at a time, through the wrappers.
        executor.run = executor.run_each  # type: ignore[method-assign]
        return recorder

    # ------------------------------------------------------------------ query

    def tracks(self) -> List[str]:
        """Track names seen so far, CPU first."""
        return span_tracks(self.spans)

    def busy_time(self, track: str) -> float:
        """Total span duration on one track."""
        return sum(s.duration for s in self.spans if s.track == track)

    def clear(self) -> None:
        self.spans.clear()

    # ------------------------------------------------------------------ export

    def to_chrome_trace(self) -> dict:
        """The Chrome trace-event representation (complete 'X' events)."""
        return chrome_trace(self.spans)

    def export_json(self, path: str) -> str:
        """Write the Chrome trace JSON; returns the path."""
        return export_chrome_trace(self.spans, path)
