"""Per-replica failure detection on the simulated clock.

Every replica heartbeats the router once per :data:`HEARTBEAT_INTERVAL`
of simulated time.  A :class:`HealthMonitor` walks those beat instants
against the installed :class:`~repro.faults.schedule.FaultSchedule` and
drives one state machine per replica::

    healthy --(SUSPECT_AFTER missed beats)--> suspect
    suspect --(DEAD_AFTER missed beats)-----> dead
    suspect --(beat received)---------------> healthy      (a flap)
    dead    --(beats resume)----------------> recovering
    recovering --(replay done)--------------> healthy      (readmitted)

Both :class:`~repro.faults.schedule.ReplicaCrash` (real failure: the
replica's memory is gone) and :class:`~repro.faults.schedule.HeartbeatLoss`
(detector false positive: the replica keeps serving) make beats go
missing — the state machine cannot tell them apart, which is the point.
The router layers the difference on top: a crash loses in-flight work
and forces snapshot + log-replay recovery, a heartbeat loss merely
drains traffic away until beats resume.

Because beats are deterministic functions of the schedule, the
whole timeline is precomputed before a single request is served, and
transition instants double as alert timestamps: the replica-health alert
fires on the healthy->suspect edge (time-to-detect) and resolves on the
readmission edge (time-to-recover).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..obs.alerts import FIRING, RESOLVED, Alert
from ..obs.registry import MetricsRegistry, Observable

#: Health states, in escalation order.
HEALTHY = "healthy"
SUSPECT = "suspect"
DEAD = "dead"
RECOVERING = "recovering"

#: Numeric gauge encoding of each state (``cluster.replica_state``).
STATE_CODES = {HEALTHY: 0, SUSPECT: 1, DEAD: 2, RECOVERING: 3}


# Failure-detector and readmission tuning.

#: Simulated seconds between replica heartbeats.
HEARTBEAT_INTERVAL = 1e-3
#: Consecutive missed beats before healthy -> suspect.
SUSPECT_AFTER = 2
#: Consecutive missed beats before suspect -> dead.
DEAD_AFTER = 4
#: Version lag past which the per-replica staleness alert fires.
STALENESS_BUDGET = 2.0
#: Modeled log-replay bandwidth during recovery (keys/second).
REPLAY_KEYS_PER_S = 2e6


@dataclass(frozen=True)
class HealthTransition:
    """One edge of a replica's state machine, stamped in simulated time."""

    at: float
    state: str

    def to_dict(self) -> dict:
        return {"at": self.at, "state": self.state}


class ReplicaHealth:
    """One replica's precomputed health timeline, queryable by time."""

    def __init__(self, replica_id: int, transitions: List[HealthTransition]):
        self.replica_id = replica_id
        self.transitions: Tuple[HealthTransition, ...] = tuple(transitions)
        if not self.transitions or self.transitions[0].at != 0.0:
            raise ConfigError("timeline must start at t=0")
        self._times = [t.at for t in self.transitions]
        self._routable = np.array(
            [t.state == HEALTHY for t in self.transitions]
        )

    def state_at(self, now: float) -> str:
        """The replica's detector state at ``now``."""
        i = bisect_right(self._times, now) - 1
        return self.transitions[max(i, 0)].state

    def routable_at(self, now: float) -> bool:
        return self.state_at(now) == HEALTHY

    # hot-path: vectorized
    def routable_many(self, times: np.ndarray) -> np.ndarray:
        """:meth:`routable_at` for an array of instants."""
        i = np.searchsorted(self._times, times, side="right") - 1
        return self._routable[np.maximum(i, 0)]

    def first(self, state: str, after: float = 0.0) -> Optional[float]:
        """Instant of the first transition into ``state`` at/after
        ``after`` (None if the timeline never enters it)."""
        for transition in self.transitions:
            if transition.state == state and transition.at >= after:
                return transition.at
        return None

    def unroutable_windows(self) -> List[Tuple[float, float]]:
        """Merged ``[start, end)`` windows where the state is not healthy
        (``end`` is ``inf`` when the timeline ends unhealthy)."""
        windows: List[Tuple[float, float]] = []
        open_at: Optional[float] = None
        for transition in self.transitions:
            if transition.state != HEALTHY and open_at is None:
                open_at = transition.at
            elif transition.state == HEALTHY and open_at is not None:
                windows.append((open_at, transition.at))
                open_at = None
        if open_at is not None:
            windows.append((open_at, float("inf")))
        return windows

    def to_payload(self) -> List[dict]:
        return [t.to_dict() for t in self.transitions]


class HealthMonitor(Observable):
    """Precomputes every replica's health timeline from the schedule.

    ``replay_seconds(replica, at)`` — supplied by the router — models how
    long the rejoining replica needs to replay the update log from its
    snapshot to the version frontier; readmission waits for the first
    beat after that, so a stale replica is never routed to early.
    """

    def __init__(self, schedule, num_replicas: int):
        if num_replicas < 1:
            raise ConfigError("num_replicas must be >= 1")
        self.schedule = schedule
        self.num_replicas = num_replicas

    def _beat_missed(self, replica: int, now: float) -> bool:
        return self.schedule.replica_crashed(
            replica, now
        ) or self.schedule.heartbeat_lost(replica, now)

    def observe(
        self,
        horizon: float,
        replay_seconds: Optional[Callable[[int, float], float]] = None,
    ) -> Dict[int, ReplicaHealth]:
        """Walk heartbeats over ``[0, horizon]``; returns the timelines."""
        if horizon <= 0:
            raise ConfigError("health horizon must be positive")
        timelines: Dict[int, ReplicaHealth] = {}
        for replica in range(self.num_replicas):
            transitions = [HealthTransition(0.0, HEALTHY)]
            state = HEALTHY
            missed = 0
            readmit_at: Optional[float] = None
            beats = int(ceil(horizon / HEARTBEAT_INTERVAL))
            for k in range(1, beats + 1):
                t = k * HEARTBEAT_INTERVAL
                lost = self._beat_missed(replica, t)
                self.obs.inc("cluster.heartbeats")
                if lost:
                    self.obs.inc("cluster.missed_heartbeats")
                    missed += 1
                    if state == HEALTHY and missed >= SUSPECT_AFTER:
                        state = SUSPECT
                        transitions.append(HealthTransition(t, state))
                    elif state == SUSPECT and missed >= DEAD_AFTER:
                        state = DEAD
                        transitions.append(HealthTransition(t, state))
                    continue
                missed = 0
                if state == SUSPECT:
                    # A flap: beats resumed before the dead threshold and
                    # the replica never lost state, so no replay gate.
                    state = HEALTHY
                    transitions.append(HealthTransition(t, state))
                elif state == DEAD:
                    state = RECOVERING
                    transitions.append(HealthTransition(t, state))
                    delay = (
                        replay_seconds(replica, t)
                        if replay_seconds is not None else 0.0
                    )
                    # Readmission waits at least one full beat: the
                    # replica must prove it is both alive and caught up.
                    readmit_at = t + max(delay, HEARTBEAT_INTERVAL)
                elif state == RECOVERING and t >= readmit_at:
                    state = HEALTHY
                    transitions.append(HealthTransition(t, state))
                    readmit_at = None
            timelines[replica] = ReplicaHealth(replica, transitions)
        return timelines

    def health_alerts(
        self, timelines: Dict[int, ReplicaHealth]
    ) -> List[Alert]:
        """One alert per unhealthy episode: fires on the suspect edge,
        resolves on the readmission edge (open if never readmitted)."""
        alerts: List[Alert] = []
        for replica in sorted(timelines):
            timeline = timelines[replica]
            for index, (start, end) in enumerate(
                timeline.unroutable_windows()
            ):
                resolved = end != float("inf")
                alerts.append(Alert(
                    rule=f"replica{replica}-health",
                    slo="replica-health",
                    state=RESOLVED if resolved else FIRING,
                    fired_at=start,
                    fired_window=index,
                    burn_rate=1.0,
                    peak_burn_rate=1.0,
                    resolved_at=end if resolved else None,
                    resolved_window=index if resolved else None,
                ))
        return alerts

    def _register_observability(self, registry: MetricsRegistry) -> None:
        registry.add_conservation(
            "cluster.heartbeat-bounded",
            ["cluster.missed_heartbeats"], ["cluster.heartbeats"], op="<=",
        )


__all__ = [
    "DEAD",
    "HEALTHY",
    "RECOVERING",
    "STATE_CODES",
    "SUSPECT",
    "HealthMonitor",
    "HealthTransition",
    "ReplicaHealth",
]
