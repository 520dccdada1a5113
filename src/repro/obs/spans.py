"""Span tracing on the simulated clock.

A :class:`SpanTracer` observing a server captures *serving* activity
across a whole run: one span per (batch, stage) — index / fetch / copy /
dense — plus queueing spans, all stamped with absolute simulated-clock
times.  Attached to an
executor (:meth:`SpanTracer.attach`) it captures *executor* activity
instead: every kernel launch and execution, host work, copy and sync
inside a batch.  Either exports Chrome trace-event JSON via
:func:`~repro.gpusim.tracing.chrome_trace`, so a pipelined run's
choreography (stage overlap across batches, admission stalls,
fault-window slowdowns) or one batch's (launch storms, the DRAM query
overlapping the copy kernel, sync stalls) opens directly in
``chrome://tracing`` or Perfetto::

    executor = Executor(hw)
    tracer = SpanTracer.attach(executor)
    layer.query(batch, executor)
    tracer.export_json("batch.trace.json")

Serving spans are a function of the run's
:class:`~repro.obs.record.ServingRecord` (:func:`stage_spans`), in the
order the loop executed the stages:

* track ``lane{k}`` — pipeline lane ``batch_index % depth`` (``lane0``
  alone at depth 1);
* name ``b{i}:{stage}`` — batch ``i`` executing ``stage``;
* category — the stage name (``index``/``fetch``/``copy``/``dense``), or
  ``queue`` for the wait between batch formation and first dispatch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..gpusim.executor import Executor, Stream
from ..gpusim.kernel import KernelSpec, kernel_execution_time
from ..gpusim.stats import Category
from ..gpusim.tracing import Span, chrome_trace, export_chrome_trace, span_tracks


class SpanTracer:
    """Collects spans on the simulated clock: serving stages, or an
    attached executor's activity."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @classmethod
    def attach(cls, executor: Executor) -> "SpanTracer":
        """A tracer of ``executor``'s activity: wraps its accounting entry
        points with span capture, on tracks ``cpu`` and ``stream:<name>``.

        The wrapping is purely additive: timing behaviour is unchanged, the
        tracer only observes clock values around each call.
        """
        tracer = cls()
        spans = tracer.spans
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
            spans.append(Span(
                track="cpu", name=f"launch:{spec.name}",
                start=cpu_before, duration=executor.cpu.now - cpu_before,
                category="maintenance",
            ))
            spans.append(Span(
                track=f"stream:{target.name}", name=spec.name,
                start=end - exec_time, duration=exec_time,
                category=category.value,
            ))
            return end

        def host_work(duration: float, category: Category) -> None:
            start = executor.cpu.now
            original_host_work(duration, category)
            spans.append(Span(
                track="cpu", name=f"host:{category.value}",
                start=start, duration=duration, category=category.value,
            ))

        def copy(nbytes: int, category: Category,
                 async_stream: Optional[Stream] = None) -> None:
            start = executor.cpu.now
            original_copy(nbytes, category, async_stream)
            spans.append(Span(
                track="cpu", name=f"copy:{nbytes}B",
                start=start, duration=executor.cpu.now - start,
                category=category.value,
            ))

        def synchronize(stream: Optional[Stream] = None) -> None:
            start = executor.cpu.now
            original_synchronize(stream)
            spans.append(Span(
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
        return tracer

    def observe(self, record) -> None:
        """Add a finished run's serving spans (:func:`stage_spans`)."""
        self.spans.extend(stage_spans(record))

    # ------------------------------------------------------------- querying

    def __len__(self) -> int:
        return len(self.spans)

    def tracks(self) -> List[str]:
        return span_tracks(self.spans)

    def busy_time(self, track: str) -> float:
        return sum(s.duration for s in self.spans if s.track == track)

    def span_list(self) -> List[Tuple[str, str, float, float, str]]:
        """Plain-tuple form ``(track, name, start, duration, category)`` —
        what the determinism regression test compares across runs."""
        return [(s.track, s.name, s.start, s.duration, s.category)
                for s in self.spans]

    def clear(self) -> None:
        self.spans.clear()

    # -------------------------------------------------------------- export

    def to_chrome_trace(self) -> dict:
        return chrome_trace(self.spans)

    def export_json(self, path: str) -> str:
        return export_chrome_trace(self.spans, path)


# hot-path: vectorized
def stage_spans(record) -> List[Span]:
    """A run's serving spans: per batch, its queue wait (seal to
    dispatch, when it waited) and one span per stage, in execution
    order."""
    keyed = []
    for row, index in enumerate(record.batch):  # lint: allow-loop (per batch)
        lane = f"lane{index % record.depth}"
        stages = record.stages[row]
        formed_at, dispatch = record.formed_at[row], record.dispatch[row]
        if dispatch > formed_at:
            keyed.append((stages[0][0], 0, Span(
                track=lane, name=f"b{index}:queue", start=formed_at,
                duration=dispatch - formed_at, category="queue",
            )))
        for seq, stage, start, _, _, end in stages:  # lint: allow-loop (per stage)
            keyed.append((seq, 1, Span(
                track=lane, name=f"b{index}:{stage}", start=start,
                duration=end - start, category=stage,
            )))
    keyed.sort(key=lambda item: item[:2])
    return [span for _, _, span in keyed]
