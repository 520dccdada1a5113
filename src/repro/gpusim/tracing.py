"""Spans on the simulated clock and their Chrome trace-event export.

A :class:`Span` is one traced interval on a named track (the CPU thread,
a CUDA stream, a pipeline lane).  :class:`~repro.obs.spans.SpanTracer`
records them — serving stages, or every accounted interval of an
:class:`~repro.gpusim.Executor` once ``SpanTracer.attach`` wraps it — and
exports them in the Chrome trace-event JSON format, so a batch's
choreography (launch storms, overlap between the DRAM query and the copy
kernel, sync stalls) can be inspected in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from ..errors import SimulationError


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

    What :class:`~repro.obs.spans.SpanTracer` exports, for executor-level
    and serving-level spans alike; it opens in ``chrome://tracing`` or
    Perfetto.
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
