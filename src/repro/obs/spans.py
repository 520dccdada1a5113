"""Per-request span tracing on the simulated clock.

Where :class:`~repro.gpusim.tracing.TraceRecorder` captures *executor*
activity (individual kernel launches, copies, syncs) inside one batch,
:class:`SpanTracer` captures *serving* activity across a whole run: one
span per (batch, stage) — index / fetch / copy / dense — plus queueing
spans, all stamped with absolute simulated-clock times.  Both emit the
same Chrome trace-event JSON via :func:`~repro.gpusim.tracing.chrome_trace`,
so a pipelined run's choreography (stage overlap across batches, admission
stalls, fault-window slowdowns) opens directly in ``chrome://tracing`` or
Perfetto.

Span taxonomy used by the serving loop:

* track ``lane{k}`` — pipeline lane ``batch_index % depth`` (``lane0``
  alone at depth 1);
* name ``b{i}:{stage}`` — batch ``i`` executing ``stage``;
* category — the stage name (``index``/``fetch``/``copy``/``dense``), or
  ``queue`` for the wait between batch formation and first dispatch.
"""

from __future__ import annotations

from typing import List, Tuple

from ..gpusim.tracing import Span, chrome_trace, export_chrome_trace, span_tracks


class SpanTracer:
    """Collects serving-level spans on the simulated clock."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(
        self,
        track: str,
        name: str,
        start: float,
        end: float,
        category: str,
        args: dict = None,
    ) -> None:
        """Record one closed interval ``[start, end]`` on ``track``.

        ``args`` (optional) lands in the Chrome trace event's ``args``
        field — the request tracer stamps ``request_id``/``dispatch``
        there so one request's copies group across replica tracks.
        """
        self.spans.append(
            Span(track=track, name=name, start=start,
                 duration=end - start, category=category, args=args)
        )

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
