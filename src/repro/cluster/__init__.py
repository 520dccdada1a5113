"""Fault-tolerant multi-replica serving cluster (paper §5 future work).

N cache-equipped serving replicas — each a full
:class:`~repro.serving.pipeline.PipelinedInferenceServer` over its own
Fleche cache — behind a health-checked :class:`ClusterRouter`:

* pluggable routing (consistent-hash / table-shard / least-outstanding)
  built on the partitioners in :mod:`repro.multigpu.partition`;
* the Zipf hot head replicated onto every replica at admission, so
  failed-over hot traffic never pays a cold-start;
* a heartbeat-driven failure detector
  (healthy -> suspect -> dead -> recovering), per-replica circuit
  breakers, deadline-based failover, and cross-replica hedging;
* refresh fan-out: one shared :class:`~repro.refresh.log.UpdateLog`
  feeds every replica's :class:`~repro.refresh.subscriber.
  UpdateSubscriber`, and a crashed replica recovers by restoring its
  snapshot and replaying the log to the cluster's version frontier
  before it is re-admitted to routing.

Everything runs on the simulated clock and is replayable from
``(schedule, seed)``; conservation laws on the router's registry audit
that routed == served + failed-over + shed on every run.
"""

from .health import (
    DEAD,
    HEALTHY,
    RECOVERING,
    STATE_CODES,
    SUSPECT,
    HealthMonitor,
    HealthTransition,
    ReplicaHealth,
)
from .drill import ScenarioDrillResult, hot_head_victim, run_scenario_drill
from .replica import ClusterReplica
from .router import (
    DISPATCH_FAILOVER,
    DISPATCH_HEDGE,
    DISPATCH_PRIMARY,
    SHED,
    ClusterConfig,
    ClusterReport,
    ClusterRouter,
)
from .routing import (
    POLICY_NAMES,
    ConsistentHashPolicy,
    LeastOutstandingPolicy,
    RoutingPolicy,
    TableShardPolicy,
    make_policy,
)

__all__ = [
    "DEAD",
    "DISPATCH_FAILOVER",
    "DISPATCH_HEDGE",
    "DISPATCH_PRIMARY",
    "HEALTHY",
    "POLICY_NAMES",
    "RECOVERING",
    "SHED",
    "STATE_CODES",
    "SUSPECT",
    "ClusterConfig",
    "ClusterReplica",
    "ClusterReport",
    "ClusterRouter",
    "ConsistentHashPolicy",
    "HealthMonitor",
    "HealthTransition",
    "LeastOutstandingPolicy",
    "ReplicaHealth",
    "RoutingPolicy",
    "ScenarioDrillResult",
    "TableShardPolicy",
    "hot_head_victim",
    "make_policy",
    "run_scenario_drill",
]
