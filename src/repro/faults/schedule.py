"""Deterministic fault schedules over simulated time.

A :class:`FaultSchedule` is an immutable set of typed fault events, each
active over a ``[start, start + duration)`` window of the simulated
clock.  The schedule itself is pure — it answers "what is broken at time
``t``?" — while the stochastic part (does *this* attempt hit the
transient-timeout probability?) lives in
:class:`~repro.faults.injector.FaultInjector`, whose RNG is seeded.  A
run is therefore replayable from ``(schedule, seed)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

_FOREVER = float("inf")


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one fault active over a window of simulated time."""

    start: float = 0.0
    duration: float = _FOREVER

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigError("fault start must be >= 0")
        if self.duration <= 0:
            raise ConfigError("fault duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class TransientTimeout(FaultEvent):
    """Each attempt inside the window times out with ``probability``."""

    probability: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("timeout probability must be in [0, 1]")


@dataclass(frozen=True)
class DegradedLink(FaultEvent):
    """The network path runs ``factor`` times slower inside the window."""

    factor: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ConfigError("degraded-link factor must be >= 1")


@dataclass(frozen=True)
class ShardOutage(FaultEvent):
    """Parameter-server shard ``shard`` is down for the whole window."""

    shard: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shard < 0:
            raise ConfigError("shard index must be >= 0")


@dataclass(frozen=True)
class DramTierFailure(FaultEvent):
    """The CPU-DRAM cache tier is unavailable for the whole window.

    Resident entries are lost (their GPU unified-index pointers must be
    invalidated) and lookups go straight to the remote tier until the
    window closes.
    """


@dataclass(frozen=True)
class UpdateLogOutage(FaultEvent):
    """The model-update log is unreachable for the whole window.

    Subscribers cannot read batch payloads while the window is active;
    replicas keep serving but fall behind the trainer, and the staleness
    SLO measures by how much.  Control-plane metadata (head offset,
    latest version) stays visible, so version-lag gauges keep working —
    the outage is detectable, not silent.
    """


@dataclass(frozen=True)
class SlowSubscriber(FaultEvent):
    """A replica's update-apply path runs ``factor`` times slower.

    Models a straggler replica (GC pause, noisy neighbour, PCIe
    contention): each refresh quantum inside the window costs more
    device time, so fewer updates fit per idle slot and staleness grows.
    """

    factor: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ConfigError("slow-subscriber factor must be >= 1")


@dataclass(frozen=True)
class ReplicaCrash(FaultEvent):
    """Serving replica ``replica`` is down for the whole window.

    The process loses its in-memory state (GPU cache, subscriber
    position); only its last stamped snapshot survives.  Recovery
    restores the snapshot and replays the update log (see
    :mod:`repro.cluster`).  Requests in flight on the replica when the
    window opens never complete.
    """

    replica: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replica < 0:
            raise ConfigError("replica index must be >= 0")


@dataclass(frozen=True)
class ReplicaSlowdown(FaultEvent):
    """Replica ``replica`` serves ``factor`` times slower in the window.

    Models a straggler (GC pause, thermal throttle, noisy neighbour):
    the replica stays up and heartbeats normally, but every request it
    serves inside the window takes ``factor`` times longer — the case
    cross-replica hedging exists for.
    """

    replica: int = 0
    factor: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replica < 0:
            raise ConfigError("replica index must be >= 0")
        if self.factor < 1.0:
            raise ConfigError("replica-slowdown factor must be >= 1")


@dataclass(frozen=True)
class HeartbeatLoss(FaultEvent):
    """Replica ``replica``'s heartbeats are lost, but it keeps serving.

    The failure detector's false-positive case: the control plane sees
    missed beats and walks the replica towards ``suspect``/``dead`` while
    the data plane is fine.  Distinguishing this from
    :class:`ReplicaCrash` is what the drill's health state machine is
    tested against.
    """

    replica: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replica < 0:
            raise ConfigError("replica index must be >= 0")


def _level(event: FaultEvent) -> float:
    """An active event's strength: its factor or timeout probability,
    1.0 for an event that is only up or down."""
    return getattr(event, "factor", getattr(event, "probability", 1.0))


class FaultSchedule:
    """An immutable, queryable collection of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ConfigError(f"not a fault event: {event!r}")
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        #: ``(event type, target field, target) -> (breaks, levels)``
        #: step functions behind every query (see :meth:`_timeline`).
        self._timelines: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultSchedule({list(self.events)!r})"

    # ------------------------------------------------------------ queries
    #
    # Every "what is broken at ``now``?" query reads one cached step
    # function per (event type, target): the scalar queries and the
    # ``*_many`` array forms answer from the same table.

    def _timeline(self, kind: type, attr: Optional[str], target):
        """``(breaks, levels)`` of the ``kind`` events on ``target``.

        ``attr`` names the event field holding the target (``"shard"``,
        ``"replica"``) or is ``None`` for schedule-wide events.
        ``levels[k]`` is the strongest active event's level (its
        ``factor`` or ``probability``; 1.0 for event types with neither;
        0.0 when nothing is active) on ``[breaks[k-1], breaks[k])``, so a
        right-sided search gives the scalar queries' ``start <= now <
        end`` edges.  Built on first use: the event set never changes.
        """
        key = (kind, attr, target)
        if key not in self._timelines:
            events = [
                e for e in self.events
                if isinstance(e, kind)
                and (attr is None or getattr(e, attr) == target)
            ]
            breaks = sorted({b for e in events for b in (e.start, e.end)})
            levels = [0.0] + [
                max((_level(e) for e in events if e.active(b)), default=0.0)
                for b in breaks
            ]
            self._timelines[key] = (
                np.array(breaks, dtype=np.float64), np.array(levels),
            )
        return self._timelines[key]

    def _at(self, kind: type, attr: Optional[str], target,
               now: float) -> float:
        breaks, levels = self._timeline(kind, attr, target)
        return float(levels[breaks.searchsorted(now, side="right")])

    def timeout_probability(self, now: float) -> float:
        """Per-attempt transient-timeout probability at ``now``."""
        return self._at(TransientTimeout, None, None, now)

    def link_factor(self, now: float) -> float:
        """Latency multiplier on the network path at ``now``."""
        return max(self._at(DegradedLink, None, None, now), 1.0)

    def shard_down(self, shard: int, now: float) -> bool:
        """Whether PS shard ``shard`` is inside an outage window."""
        return self._at(ShardOutage, "shard", shard, now) > 0.0

    def dram_down(self, now: float) -> bool:
        """Whether the DRAM tier is inside a failure window."""
        return self._at(DramTierFailure, None, None, now) > 0.0

    def update_log_down(self, now: float) -> bool:
        """Whether the model-update log is inside an outage window."""
        return self._at(UpdateLogOutage, None, None, now) > 0.0

    def subscriber_slow_factor(self, now: float) -> float:
        """Slowdown multiplier on the update-apply path at ``now``."""
        return max(self._at(SlowSubscriber, None, None, now), 1.0)

    def replica_crashed(self, replica: int, now: float) -> bool:
        """Whether serving replica ``replica`` is inside a crash window."""
        return self._at(ReplicaCrash, "replica", replica, now) > 0.0

    def replica_crash_windows(
        self, replica: int
    ) -> List[Tuple[float, float]]:
        """Sorted ``(start, end)`` crash windows of one replica."""
        return sorted(
            (e.start, e.end)
            for e in self.events
            if isinstance(e, ReplicaCrash) and e.replica == replica
        )

    def replica_slow_factor(self, replica: int, now: float) -> float:
        """Service-time multiplier on replica ``replica`` at ``now``."""
        return max(
            self._at(ReplicaSlowdown, "replica", replica, now), 1.0
        )

    def _levels_many(
        self, kind: type, replica: int, times: np.ndarray
    ) -> np.ndarray:
        """Strongest active ``kind`` event on ``replica`` at each instant."""
        breaks, levels = self._timeline(kind, "replica", replica)
        return levels[np.searchsorted(breaks, times, side="right")]

    # hot-path: vectorized
    def crashed_many(self, replica: int, times: np.ndarray) -> np.ndarray:
        """:meth:`replica_crashed` for an array of instants."""
        return self._levels_many(ReplicaCrash, replica, times) > 0.0

    # hot-path: vectorized
    def slow_factor_many(self, replica: int, times: np.ndarray) -> np.ndarray:
        """:meth:`replica_slow_factor` for an array of instants."""
        return np.maximum(
            self._levels_many(ReplicaSlowdown, replica, times), 1.0
        )

    def heartbeat_lost(self, replica: int, now: float) -> bool:
        """Whether replica ``replica``'s heartbeats are lost at ``now``.

        Only :class:`HeartbeatLoss` windows count — a crashed replica
        also misses beats, but callers distinguish the two (crash loses
        state; heartbeat loss is a detector false positive).
        """
        return self._at(HeartbeatLoss, "replica", replica, now) > 0.0

    def fault_windows(self) -> List[Tuple[float, float]]:
        """Merged ``(start, end)`` intervals during which any fault is live.

        Used to split SLA attainment into healthy vs fault windows.
        """
        spans = sorted((e.start, e.end) for e in self.events)
        merged: List[Tuple[float, float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged
