"""Monotonic timelines used by the executor.

A :class:`Timeline` is a single monotonically advancing clock.  The executor
owns one timeline for the CPU thread and one per CUDA stream; overlap between
host and device work is expressed by advancing the clocks independently and
joining them at synchronisation points.
"""

from __future__ import annotations

from ..errors import SimulationError


class Timeline:
    """A monotonic clock measured in seconds.

    Besides the instant itself, the timeline distinguishes *active* time
    (explicit :meth:`advance` calls — the thread doing work) from waiting
    (:meth:`advance_to` — the thread blocked on another timeline).  The
    pipelined serving scheduler uses the active share to decide how long a
    stage really occupies the single host thread.
    """

    __slots__ = ("name", "_now", "_active")

    def __init__(self, name: str):
        self.name = name
        self._now = 0.0
        self._active = 0.0

    @property
    def now(self) -> float:
        """Current time on this timeline."""
        return self._now

    @property
    def active(self) -> float:
        """Cumulative time spent actively working (vs. waiting)."""
        return self._active

    def advance(self, duration: float) -> float:
        """Move the clock forward by ``duration`` seconds and return the new time."""
        if duration < 0:
            raise SimulationError(
                f"timeline {self.name!r}: cannot advance by negative duration {duration}"
            )
        self._now += duration
        self._active += duration
        return self._now

    def advance_to(self, instant: float) -> float:
        """Move the clock forward to ``instant`` if it is in the future."""
        if instant > self._now:
            self._now = instant
        return self._now

    def reset(self) -> None:
        """Rewind the clock to 0 (only meaningful between independent
        experiments)."""
        self._now = 0.0
        self._active = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeline({self.name!r}, now={self._now:.9f})"
