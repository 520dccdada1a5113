"""Fault injection and resilience for the multi-tier hierarchy.

Production deployments of a §5-style ``GPU-HBM -> CPU-DRAM -> remote PS``
hierarchy fail at the bottom: parameter-server shards brown out, links
congest, and the DRAM tier restarts.  This package replaces the seed's
stateless per-fetch coin flip with

* a deterministic, replayable :class:`~repro.faults.schedule.FaultSchedule`
  of typed events driven by simulated time plus a seeded RNG
  (:mod:`repro.faults.schedule`, :mod:`repro.faults.injector`);
* a resilient fetch client — per-attempt timeouts, capped exponential
  backoff with jitter, hedged requests, and a per-shard circuit breaker
  (:mod:`repro.faults.retry`);
* graceful degradation policies for when the remote tier stays
  unavailable past the deadline (:mod:`repro.faults.degrade`).

With no schedule installed every fetch takes exactly the seed's happy
path, so fault-free runs stay byte-identical.
"""

from .degrade import DegradeConfig
from .injector import AttemptOutcome, FaultInjector
from .retry import (
    BreakerConfig,
    CircuitBreaker,
    FetchOutcome,
    ResilientFetchClient,
    RetryPolicy,
)
from .schedule import (
    DegradedLink,
    DramTierFailure,
    FaultSchedule,
    HeartbeatLoss,
    ReplicaCrash,
    ReplicaSlowdown,
    ShardOutage,
    SlowSubscriber,
    TransientTimeout,
    UpdateLogOutage,
)

__all__ = [
    "AttemptOutcome",
    "BreakerConfig",
    "CircuitBreaker",
    "DegradeConfig",
    "DegradedLink",
    "DramTierFailure",
    "FaultInjector",
    "FaultSchedule",
    "FetchOutcome",
    "HeartbeatLoss",
    "ReplicaCrash",
    "ReplicaSlowdown",
    "ResilientFetchClient",
    "RetryPolicy",
    "ShardOutage",
    "SlowSubscriber",
    "TransientTimeout",
    "UpdateLogOutage",
]
