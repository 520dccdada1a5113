"""Front-end router: health-checked dispatch, failover, hedging.

The :class:`ClusterRouter` composes N :class:`~repro.cluster.replica.
ClusterReplica`\\ s behind one ``serve()`` entry point.  Planning is
separated from execution so a run stays a pure function of
``(requests, schedule, seed)``:

1. **Detect** — the :class:`~repro.cluster.health.HealthMonitor`
   precomputes every replica's health timeline from the fault schedule.
2. **Plan** — every send of the run becomes one row of a dispatch
   table held as columns (``index, replica, incarnation, at, kind_rank,
   cause, finish, valid, pos``).  The routing policy names every
   primary of the stream in one ``primary_many`` call, given which
   replicas are routable at each arrival; crash windows turn sends into
   lost ones (re-sent to the next live replica after
   :data:`DISPATCH_TIMEOUT`, or at once when the per-replica circuit
   breaker is open); detected-dead and suspect windows fail over at
   dispatch time; slowdown windows add a cross-replica hedge copy after
   ``hedge_delay``.  One planner turns those owners into array masks
   over the whole stream, for every policy, faults or not — only the
   breakers, whose state depends on request order, are advanced one
   request at a time.
3. **Execute** — the rows are grouped into ``(replica, incarnation)``
   streams ordered by ``(at, request_id)``, each served through its own
   :class:`~repro.serving.pipeline.PipelinedInferenceServer`, and
   ``finish = at + latency x slow_factor`` is stamped per stream.
   Crash victims run first so sends lost in flight can be re-planned;
   the victim then crashes, restores its snapshot, replays the shared
   update log to the version frontier, and its post-rejoin incarnation
   serves like any other stream.
4. **Merge** — per request, the earliest valid completion wins
   (primary beats failover beats hedge on ties, one lexsort over the
   columns); requests with no valid completion are shed.

Conservation is audited on the router's own registry: routed requests
equal served-primary + served-failover + served-hedge + shed, hedge
wins never exceed hedges fired, and every live replica's refresh stream
must satisfy its own fan-out conservation law.

With ``failover=False`` the router degrades to the unrouted baseline
the drill compares against: requests for a crashed replica are shed
until the process restarts and replays, and nothing is hedged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isfinite
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, WorkloadError
from ..faults.retry import BreakerConfig, CircuitBreaker
from ..faults.schedule import FaultSchedule
from ..obs.alerts import FIRING, RESOLVED, Alert
from ..obs.record import RecordLog, ServingRecord
from ..obs.registry import MetricsRegistry, Observable, install_reqtrace_laws
from ..obs.reqtrace import (
    RequestTrace,
    TraceConfig,
    TraceContext,
    cause_counts,
    request_trace,
    sample_traces,
)
from ..serving.arrivals import RequestStream, request_columns
from .health import (
    DEAD_AFTER,
    HEALTHY,
    HEARTBEAT_INTERVAL,
    REPLAY_KEYS_PER_S,
    STALENESS_BUDGET,
    STATE_CODES,
    SUSPECT,
    HealthMonitor,
    ReplicaHealth,
)
from .replica import ClusterReplica
from .routing import RoutingPolicy, make_policy

#: How a request ultimately got served (ClusterReport.dispositions).
DISPATCH_PRIMARY = "primary"
DISPATCH_FAILOVER = "failover"
DISPATCH_HEDGE = "hedge"
SHED = "shed"

_KIND_RANK = {DISPATCH_PRIMARY: 0, DISPATCH_FAILOVER: 1, DISPATCH_HEDGE: 2}
#: Disposition of each winning ``kind_rank``; the last entry marks no winner.
_DISPOSITIONS = (*_KIND_RANK, SHED)
#: Why a failover was planned (the table's ``cause`` column indexes this;
#: 0 = not a failover).  "breaker" marks fast-fails in the trace.
_CAUSES = ("", "health", "timeout", "breaker", "inflight")
#: Un-acked dispatches are re-sent to the next replica after this.
DISPATCH_TIMEOUT = 1e-3


@dataclass(frozen=True)
class ClusterConfig:
    """Topology + routing + failure-handling knobs for one cluster."""

    num_replicas: int = 4
    #: Routing policy name (see :data:`repro.cluster.routing.POLICY_NAMES`).
    policy: str = "hash"
    #: Zipf-head ids replicated onto every replica at admission.
    hot_keys: int = 256
    #: Cross-replica hedge delay for straggler replicas (None = off).
    hedge_delay: Optional[float] = None
    #: False = unrouted baseline: no failover, no hedging, crashed
    #: replicas shed their traffic until the process restarts.
    failover: bool = True
    #: Per-replica circuit breaker (None = no breaker).
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ConfigError("cluster needs at least one replica")
        if self.hot_keys < 0:
            raise ConfigError("hot_keys must be >= 0")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ConfigError("hedge_delay must be positive when set")


#: The dispatch table's columns.  One row per planned send of one request
#: to one replica incarnation, in plan order.
_COLUMNS = {
    "index": np.int64,        # the request's position in the served stream
    "replica": np.int64,
    "incarnation": np.int64,  # 0 before the replica's restart, 1 from it on
    "at": np.float64,         # send instant: arrival (+ timeout / hedge delay)
    "kind_rank": np.int64,    # _KIND_RANK of primary / failover / hedge
    "cause": np.int64,        # index into _CAUSES
    "finish": np.float64,     # completion instant; inf until executed
    "valid": np.bool_,        # executed and not lost in a crash
    "pos": np.int64,          # position in its executed stream; -1 until run
}


class _DispatchTable:
    """Every planned send of one ``serve`` call, held as columns."""

    def __init__(self, restart_at: np.ndarray):
        #: Per replica, the instant from which sends reach its post-crash
        #: incarnation (inf for a replica that never restarts).
        self.restart_at = restart_at
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.empty(0, dtype))

    def append(self, index, replica, at, kind_rank, cause) -> None:
        """Add one chunk of sends (scalars broadcast over ``index``)."""
        m = len(index)
        replica = np.broadcast_to(np.asarray(replica, np.int64), m)
        at = np.broadcast_to(np.asarray(at, np.float64), m)
        chunk = {
            "index": index, "replica": replica, "at": at,
            "incarnation": at >= self.restart_at[replica],
            "kind_rank": np.broadcast_to(kind_rank, m),
            "cause": np.broadcast_to(cause, m),
            "finish": np.full(m, inf), "valid": np.zeros(m, bool),
            "pos": np.full(m, -1),
        }
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.concatenate(
                [getattr(self, name), np.asarray(chunk[name], dtype)]
            ))


@dataclass(frozen=True)
class _CrashEpisode:
    """One replica's crash window annotated with detector instants."""

    replica: int
    start: float
    end: float
    detect_at: float  # first suspect transition at/after start (inf = never)
    rejoin_at: float  # first healthy transition after detect (inf = never)
    recover_done: float  # unrouted restart + replay completion instant


class ClusterReport:
    """Cluster-wide serving outcome, aligned with the input stream."""

    def __init__(
        self,
        latencies: np.ndarray,
        arrival_times: np.ndarray,
        dispositions: List[str],
        per_replica: Dict[int, dict],
        health: Dict[int, ReplicaHealth],
        alerts: List[Alert],
        episodes: List[_CrashEpisode],
        metrics,
        *,
        traces=None,
        rootcause=None,
    ):
        self.latencies = latencies
        self.arrival_times = arrival_times
        self.dispositions = dispositions
        self.per_replica = per_replica
        self.health = health
        self.alerts = alerts
        self.episodes = episodes
        self.metrics = metrics
        #: sampled :class:`~repro.obs.reqtrace.RequestTrace` objects and
        #: the SLA-miss root-cause summary; None unless the router was
        #: built with a :class:`~repro.obs.reqtrace.TraceConfig`.
        self.traces = traces
        self.rootcause = rootcause

    # ------------------------------------------------------------- queries

    @property
    def served(self) -> int:
        return int(np.isfinite(self.latencies).sum())

    @property
    def shed(self) -> int:
        return len(self.latencies) - self.served

    def sla_attainment(
        self, budget: float, start: float = 0.0, end: float = inf
    ) -> float:
        """Fraction of requests arriving in ``[start, end)`` served
        within ``budget``; shed requests count against the SLA."""
        mask = (self.arrival_times >= start) & (self.arrival_times < end)
        if not mask.any():
            return float("nan")
        return float((self.latencies[mask] <= budget).mean())

    def percentile(self, q: float) -> float:
        finite = self.latencies[np.isfinite(self.latencies)]
        if len(finite) == 0:
            return float("nan")
        return float(np.percentile(finite, q))

    def latencies_for(self, kind: str) -> np.ndarray:
        mask = np.array([d == kind for d in self.dispositions])
        return self.latencies[mask]

    def disposition_counts(self) -> Dict[str, int]:
        counts = {k: 0 for k in (*_KIND_RANK, SHED)}
        for d in self.dispositions:
            counts[d] += 1
        return counts

    def to_payload(self, sla_budget: float) -> dict:
        """Deterministic JSON-safe summary (no floats from wall time)."""
        failover = self.latencies_for(DISPATCH_FAILOVER)
        payload = {
            "requests": len(self.latencies),
            "served": self.served,
            "shed": self.shed,
            "dispositions": self.disposition_counts(),
            "sla_attainment": self.sla_attainment(sla_budget),
            "p50_latency_s": self.percentile(50),
            "p99_latency_s": self.percentile(99),
            "failover_p50_s": (
                float(np.percentile(failover, 50)) if len(failover) else None
            ),
            "failover_p99_s": (
                float(np.percentile(failover, 99)) if len(failover) else None
            ),
            "alerts": [a.to_dict() for a in self.alerts],
            "health": {
                str(r): self.health[r].to_payload() for r in sorted(self.health)
            },
            "replicas": {
                str(r): self.per_replica[r] for r in sorted(self.per_replica)
            },
            "episodes": [
                {
                    "replica": e.replica,
                    "start_s": e.start,
                    "end_s": e.end if isfinite(e.end) else None,
                    "detect_s": e.detect_at if isfinite(e.detect_at) else None,
                    "rejoin_s": e.rejoin_at if isfinite(e.rejoin_at) else None,
                }
                for e in self.episodes
            ],
            "metrics": self.metrics.to_dict() if self.metrics else {},
        }
        if self.rootcause is not None:
            payload["rootcause"] = self.rootcause
        return payload

    def trace_payload(self, sla_budget: Optional[float] = None) -> dict:
        """Deterministic ``kind: reqtrace`` artifact of the sampled set.

        Same shape as :meth:`~repro.obs.reqtrace.RequestTracer.
        to_payload`, so ``repro obs critical-path`` and
        :func:`~repro.obs.critical_path.analyze_payload` consume both.
        """
        traces = self.traces or []
        return {
            "kind": "reqtrace",
            "sla_budget_s": sla_budget,
            "requests": len(self.latencies),
            "sampled": len(traces),
            "rootcause": {"causes": cause_counts(traces)},
            "traces": [t.to_dict() for t in traces],
        }


# hot-path: vectorized
def plan_primary_streams(
    owners: np.ndarray,
    arrivals: np.ndarray,
    request_ids: np.ndarray,
) -> "Dict[int, np.ndarray]":
    """Group dispatches into per-owner streams in execution order.

    The grouping kernel of the router's execute stage: one
    ``np.lexsort`` per stream orders it by ``(send instant,
    request_id)`` with ties kept stable — ``np.lexsort``'s last key is
    primary.  ``owners`` is any integer stream key.  Returns
    ``owner -> member index array`` in ascending owner order.
    """
    streams: Dict[int, np.ndarray] = {}
    for owner in np.unique(owners).tolist():  # lint: allow-loop (per replica)
        member = np.flatnonzero(owners == owner)
        streams[owner] = member[
            np.lexsort((request_ids[member], arrivals[member]))
        ]
    return streams


class ClusterRouter(Observable):
    """N cache-equipped serving replicas behind one routed front end."""

    def __init__(
        self,
        dataset,
        hw,
        config: Optional[ClusterConfig] = None,
        schedule: Optional[FaultSchedule] = None,
        update_log=None,
        warm_seed: int = 0,
        trace: Optional[TraceConfig] = None,
    ):
        self.dataset = dataset
        self.hw = hw
        self.config = config or ClusterConfig()
        self.schedule = schedule or FaultSchedule()
        #: Per-request tracing contract (None = tracing off, every code
        #: path byte-identical to an untraced router).  Sampling and all
        #: ``reqtrace.*`` counters happen at router level, where the
        #: end-to-end (cross-replica) latency is known.
        self.trace_config = trace
        self.update_log = update_log
        self.warm_seed = warm_seed
        cfg = self.config
        self.policy: RoutingPolicy = make_policy(cfg.policy, cfg.num_replicas)
        self.monitor = HealthMonitor(self.schedule, cfg.num_replicas)
        self.replicas: List[ClusterReplica] = [
            ClusterReplica(r, dataset, hw)
            for r in range(cfg.num_replicas)
        ]
        self.breakers: Dict[int, CircuitBreaker] = (
            {r: CircuitBreaker(cfg.breaker) for r in range(cfg.num_replicas)}
            if cfg.breaker is not None else {}
        )
        self.health: Dict[int, ReplicaHealth] = {}
        self.bind_observability(MetricsRegistry())
        self._admit()

    # -------------------------------------------------------------- setup

    def _admit(self) -> None:
        """Warm the hot head on every replica; wire the refresh fan-out."""
        for replica in self.replicas:
            replica.warm_hot_keys(self.warm_seed, self.config.hot_keys)
            if self.update_log is not None:
                replica.attach_refresh(self.update_log, now=0.0)
                replica.take_snapshot()

    def _register_observability(self, registry: MetricsRegistry) -> None:
        registry.add_conservation(
            "cluster.request-conservation",
            ["cluster.requests"],
            [
                "cluster.served_primary",
                "cluster.served_failover",
                "cluster.served_hedge",
                "cluster.shed",
            ],
        )
        registry.add_conservation(
            "cluster.hedge-wins-bounded",
            ["cluster.hedge_wins"], ["cluster.hedges_fired"], op="<=",
        )
        registry.add_conservation(
            "cluster.failover-dispatch-bounded",
            ["cluster.served_failover"], ["cluster.failovers_dispatched"],
            op="<=",
        )
        registry.add_check(
            "cluster.fanout-conservation", self._audit_fanout
        )
        install_reqtrace_laws(registry)
        self.monitor.bind_observability(registry)

    def _audit_fanout(self):
        """Every live replica's refresh stream conserves its keys."""
        for replica in self.replicas:
            if replica.subscriber is None:
                continue
            result = replica.subscriber._audit_stream()
            ok, detail = result if isinstance(result, tuple) else (result, "")
            if not ok:
                return False, f"replica {replica.replica_id}: {detail}"
        return True, "all replica streams conserve keys"

    # ----------------------------------------------------------- planning

    def _episodes(self) -> Dict[int, _CrashEpisode]:
        episodes: Dict[int, _CrashEpisode] = {}
        cfg = self.config
        for r in range(cfg.num_replicas):
            windows = self.schedule.replica_crash_windows(r)
            if not windows:
                continue
            if len(windows) > 1:
                raise ConfigError(
                    "at most one crash window per replica is supported"
                )
            start, end = windows[0]
            detect = self.health[r].first(SUSPECT, after=start)
            rejoin = (
                self.health[r].first(HEALTHY, after=detect)
                if detect is not None else None
            )
            recover_done = end + (
                self.replicas[r].pending_replay_keys(end)
                / REPLAY_KEYS_PER_S
            ) if isfinite(end) else inf
            episodes[r] = _CrashEpisode(
                replica=r,
                start=start,
                end=end,
                detect_at=detect if detect is not None else inf,
                rejoin_at=rejoin if rejoin is not None else inf,
                recover_done=recover_done,
            )
        return episodes

    def _restart_at(self, episode: _CrashEpisode) -> float:
        """When the victim serves again: readmission when routed, the
        end of restart + replay in the unrouted baseline."""
        return (
            episode.rejoin_at if self.config.failover
            else episode.recover_done
        )

    def _new_table(self, episodes: Dict[int, _CrashEpisode]) -> _DispatchTable:
        restart_at = np.full(self.config.num_replicas, inf)
        for r, episode in episodes.items():
            restart_at[r] = self._restart_at(episode)
        return _DispatchTable(restart_at)

    # hot-path: vectorized
    def _fallback_targets(
        self, owners: np.ndarray, at: np.ndarray
    ) -> np.ndarray:
        """Per send, the next replica after its owner on the ring that is
        routable *and* actually up at ``at``; -1 where none is."""
        num = self.config.num_replicas
        live = np.stack([
            self.health[r].routable_many(at)
            & ~self.schedule.crashed_many(r, at)
            for r in range(num)
        ])
        sends = np.arange(len(at))
        targets = np.full(len(at), -1, np.int64)
        for k in range(num - 1, 0, -1):  # lint: allow-loop (per ring step; the nearest live replica is written last)
            cand = (owners + k) % num
            hit = live[cand, sends]
            targets[hit] = cand[hit]
        return targets

    # hot-path: vectorized
    def _plan_arrays(
        self,
        owners: np.ndarray,
        arrivals: np.ndarray,
        routable: np.ndarray,
        episodes: Dict[int, _CrashEpisode],
    ) -> _DispatchTable:
        """Plan a whole arrival stream against the precomputed timelines.

        Every case of a send becomes a mask over the stream: where an
        arrival falls against its owner's crash episode (before it, lost
        undetected, detected, rejoined) is a comparison, each replica's
        health is its row of ``routable``, and its slowdown one
        ``searchsorted`` over the stream.  Only the circuit breakers see
        requests one at a time.
        """
        cfg = self.config
        t, n = arrivals, len(arrivals)
        table = self._new_table(episodes)
        start, detect_at = np.full((2, cfg.num_replicas), inf)
        for r, episode in episodes.items():  # lint: allow-loop (per victim)
            start[r], detect_at[r] = episode.start, episode.detect_at
        post = t >= start[owners]
        rejoined = post & (t >= table.restart_at[owners])
        # Two slots per request — its first send and its hedge — so that
        # reading the slots row by row is plan order.  -1 = no send.
        replica = np.full((n, 2), -1)
        at = np.stack([t, t], axis=1)
        kind_rank = np.zeros((n, 2), np.int64)
        cause = np.zeros((n, 2), np.int64)
        if not cfg.failover:
            # Unrouted baseline: shed while the owner is down or still
            # replaying after its restart.
            primary = ~post | rejoined
        else:
            detected = post & ~rejoined & (t >= detect_at[owners])
            # Undetected-dead window: the send is lost, and re-sent
            # after the dispatch timeout unless an open breaker already
            # knows to skip the dead replica.
            lost = post & ~rejoined & ~detected
            replicas, every = range(cfg.num_replicas), np.arange(n)
            steady = ~post & routable[owners, every]
            fast_fail = self._advance_breakers(
                owners, t, lost, steady & np.isfinite(start[owners])
            )
            timeout = lost & ~fast_fail
            self.obs.inc("cluster.breaker_rejections", int(fast_fail.sum()))
            self.obs.inc("cluster.lost_dispatches", int(timeout.sum()))
            # Whatever else is not sent to its owner fails over for
            # health: detected dead, or suspect from lost heartbeats.
            primary = rejoined | steady
            away = np.flatnonzero(~primary)
            at[timeout, 0] += DISPATCH_TIMEOUT
            replica[away, 0] = self._fallback_targets(
                owners[away], at[away, 0]
            )
            kind_rank[away, 0] = _KIND_RANK[DISPATCH_FAILOVER]
            cause[away, 0] = _CAUSES.index("health")
            cause[timeout, 0] = _CAUSES.index("timeout")
            cause[fast_fail, 0] = _CAUSES.index("breaker")
            if cfg.hedge_delay is not None:
                # A cross-replica copy of every primary sent into a
                # slowdown window (a rejoined victim's are not hedged).
                hedged = np.flatnonzero(steady & (np.stack([
                    self.schedule.slow_factor_many(r, t) for r in replicas
                ])[owners, every] > 1.0))
                at[hedged, 1] += cfg.hedge_delay
                replica[hedged, 1] = self._fallback_targets(
                    owners[hedged], at[hedged, 1]
                )
                kind_rank[:, 1] = _KIND_RANK[DISPATCH_HEDGE]
        replica[primary, 0] = owners[primary]
        sends = np.flatnonzero(replica.ravel() >= 0)
        table.append(sends // 2, *(
            column.ravel()[sends]
            for column in (replica, at, kind_rank, cause)
        ))
        return table

    def _advance_breakers(
        self,
        owners: np.ndarray,
        t: np.ndarray,
        lost: np.ndarray,
        succeeded: np.ndarray,
    ) -> np.ndarray:
        """Feed the victims' breakers in stream order; returns the mask
        of ``lost`` sends an open breaker rejected without a timeout.

        The breakers are the one piece of planning state that depends
        on request order, and only a crash victim's requests up to its
        detection touch them — successes before the crash, lost sends
        after — so the scalar loop runs over that subset alone.
        """
        fast_fail = np.zeros(len(t), bool)
        if not self.breakers:
            return fast_fail
        touched = np.flatnonzero(lost | succeeded)
        for i, owner, at, failed in zip(
            touched.tolist(), owners[touched].tolist(),
            t[touched].tolist(), lost[touched].tolist(),
        ):
            breaker = self.breakers[owner]
            if not failed:
                breaker.record(True, at)
            elif breaker.allow(at):
                breaker.record(False, at)
            else:
                fast_fail[i] = True
        return fast_fail

    # ---------------------------------------------------------- execution

    # hot-path: vectorized
    def _run_streams(
        self,
        requests: RequestStream,
        table: _DispatchTable,
        rows: np.ndarray,
        records: Dict[Tuple[int, int], ServingRecord],
    ) -> None:
        """Serve table ``rows`` through their ``(replica, incarnation)``
        streams, each ordered by ``(at, request_id)``, and stamp
        ``finish = at + latency x slow_factor``.  When tracing, each
        stream's serving record is kept under its key (a row's ``pos``
        indexes into it) for the traces built at merge time."""
        streams = plan_primary_streams(
            table.replica[rows] * 2 + table.incarnation[rows],
            table.at[rows], requests.columns.request_ids[table.index[rows]],
        )
        for key, member in streams.items():  # lint: allow-loop (per stream)
            replica = self.replicas[key // 2]
            sent = rows[member]
            index, at = table.index[sent], table.at[sent]
            # The replica sees each request at its send instant: a
            # re-sent copy's, not the request's own arrival.
            stream = requests.take(index, at)
            if self.trace_config is not None:
                kept = RecordLog()
                replica.server.observers.append(kept)
            report = replica.serve(stream)
            if self.trace_config is not None:
                replica.server.observers.remove(kept)
                records[divmod(key, 2)] = kept.records[0]
            table.finish[sent] = at + (
                np.asarray(report.latencies, np.float64)
                * self.schedule.slow_factor_many(replica.replica_id, at)
            )
            table.valid[sent] = True
            table.pos[sent] = np.arange(len(sent))

    def _execute(
        self,
        requests: RequestStream,
        table: _DispatchTable,
        episodes: Dict[int, _CrashEpisode],
    ) -> Dict[Tuple[int, int], ServingRecord]:
        """Run every stream, crash victims first.

        A victim's pre-crash stream runs before anything else so the
        sends still in flight at the crash can be re-planned; the victim
        then crashes, restores its snapshot and replays the update log,
        and its post-rejoin incarnation serves like any other stream.
        """
        cfg = self.config
        reg = self.obs
        records: Dict[Tuple[int, int], ServingRecord] = {}
        for victim in sorted(episodes, key=lambda r: episodes[r].start):
            episode = episodes[victim]
            rows = np.flatnonzero(
                (table.replica == victim) & (table.incarnation == 0)
            )
            self._run_streams(requests, table, rows, records)
            # In flight when the replica died: the response never
            # arrives.  The router only learns at detection, so the
            # retry dispatches then.
            inflight = rows[table.finish[rows] > episode.start]
            table.valid[inflight] = False
            reg.inc("cluster.lost_inflight", len(inflight))
            if cfg.failover and isfinite(episode.detect_at) and len(inflight):
                target = self._fallback_targets(
                    np.array([victim]), np.array([episode.detect_at])
                )[0]
                if target >= 0:
                    table.append(
                        table.index[inflight], target, episode.detect_at,
                        _KIND_RANK[DISPATCH_FAILOVER],
                        _CAUSES.index("inflight"),
                    )
            replica = self.replicas[victim]
            replica.crash()
            if isfinite(self._restart_at(episode)):
                if replica.snapshot_ is not None:
                    reg.inc(
                        "cluster.replayed_batches",
                        replica.recover(self._restart_at(episode)),
                    )
                else:
                    # No snapshot (refresh not wired): cold restart.
                    replica.cold_restart()
                    replica.warm_hot_keys(self.warm_seed, cfg.hot_keys)
        # A victim's pre-crash stream never runs twice: a send planned
        # into it after the crash stays unexecuted.
        spent = np.isin(table.replica, list(episodes)) & (
            table.incarnation == 0
        )
        self._run_streams(requests, table, np.flatnonzero(~spent), records)
        sent = np.bincount(table.kind_rank, minlength=len(_KIND_RANK))
        reg.inc(
            "cluster.failovers_dispatched",
            int(sent[_KIND_RANK[DISPATCH_FAILOVER]]),
        )
        reg.inc("cluster.hedges_fired", int(sent[_KIND_RANK[DISPATCH_HEDGE]]))
        return records

    # ------------------------------------------------------------ merging

    # hot-path: vectorized
    def _merge(
        self, table: _DispatchTable, arrivals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per request the earliest valid completion wins.

        Ties prefer primary over failover over hedge, then plan order —
        one stable lexsort of the valid rows by ``(index, finish,
        kind_rank)``, taking each index's first row.  Returns the
        latencies (inf = shed) and each request's winning table row
        (-1 = shed).
        """
        latencies = np.full(len(arrivals), inf)
        winner = np.full(len(arrivals), -1, np.int64)
        valid = np.flatnonzero(table.valid)
        order = valid[np.lexsort((
            table.kind_rank[valid], table.finish[valid], table.index[valid],
        ))]
        served, first = np.unique(table.index[order], return_index=True)
        winner[served] = order[first]
        latencies[served] = table.finish[order[first]] - arrivals[served]
        return latencies, winner

    # ------------------------------------------------------------ serving

    def _detect(self, arrivals: np.ndarray):
        """Observe every replica's health out to the run's horizon;
        returns the horizon and the crash episodes."""
        cfg = self.config
        finite_ends = [
            e.end for e in self.schedule.events if isfinite(e.end)
        ]
        horizon0 = max([float(arrivals.max())] + finite_ends)

        def replay_seconds(r: int, at: float) -> float:
            return (
                self.replicas[r].pending_replay_keys(at)
                / REPLAY_KEYS_PER_S
            )

        horizon = (
            horizon0
            + max(replay_seconds(r, horizon0) for r in range(cfg.num_replicas))
            + HEARTBEAT_INTERVAL * (DEAD_AFTER + 8)
        )
        self.health = self.monitor.observe(
            horizon, replay_seconds=replay_seconds
        )
        return horizon, self._episodes()

    # hot-path: vectorized
    def serve(self, requests: Sequence) -> ClusterReport:
        if not requests:
            raise WorkloadError("no requests to serve")
        cfg = self.config
        reg = self.obs
        reg.check()
        before = reg.snapshot()
        n = len(requests)
        reg.inc("cluster.requests", n)
        # Read once: the policy and every replica stream slice these.
        columns = request_columns(requests)
        arrivals, request_ids = columns.arrivals, columns.request_ids
        requests = RequestStream(requests, *columns)
        horizon, episodes = self._detect(arrivals)

        # Plan -> execute -> merge over one dispatch table.  The policy
        # names every primary from who is routable at each arrival (every
        # replica in the unrouted baseline); one planner takes it from
        # there.
        routable = np.stack([
            self.health[r].routable_many(arrivals)
            for r in range(cfg.num_replicas)
        ]) if cfg.failover else np.ones((cfg.num_replicas, n), bool)
        owners = self.policy.primary_many(requests, routable)
        table = self._plan_arrays(owners, arrivals, routable, episodes)
        records = self._execute(requests, table, episodes)
        latencies, winner = self._merge(table, arrivals)

        rank = np.full(n, _DISPOSITIONS.index(SHED))
        rank[winner >= 0] = table.kind_rank[winner[winner >= 0]]
        dispositions = [_DISPOSITIONS[k] for k in rank.tolist()]
        counts = dict(zip(
            _DISPOSITIONS,
            np.bincount(rank, minlength=len(_DISPOSITIONS)).tolist(),
        ))
        reg.inc("cluster.served_primary", counts[DISPATCH_PRIMARY])
        reg.inc("cluster.served_failover", counts[DISPATCH_FAILOVER])
        reg.inc("cluster.served_hedge", counts[DISPATCH_HEDGE])
        reg.inc("cluster.shed", counts[SHED])
        if counts[DISPATCH_HEDGE]:
            reg.inc("cluster.hedge_wins", counts[DISPATCH_HEDGE])

        traces = rootcause = None
        if self.trace_config is not None:
            traces, rootcause = self._assemble_traces(
                request_ids, arrivals, latencies, rank, table, winner, records
            )

        alerts = (
            self.monitor.health_alerts(self.health) if cfg.failover else []
        )
        alerts.extend(self._staleness_alerts(episodes, horizon))

        # Final sync: live subscribers catch up to the frontier so the
        # cluster converges before the fan-out audit runs.
        for replica in self.replicas:  # lint: allow-loop (per replica)
            if replica.subscriber is not None:
                replica.subscriber.catch_up(horizon)
                replica.subscriber.refresh_gauges(horizon)
        per_replica = self._replica_summaries(
            np.bincount(table.replica, minlength=cfg.num_replicas), horizon
        )

        reg.check()
        return ClusterReport(
            latencies=latencies,
            arrival_times=arrivals,
            dispositions=dispositions,
            per_replica=per_replica,
            health=self.health,
            alerts=alerts,
            episodes=sorted(
                episodes.values(), key=lambda e: (e.start, e.replica)
            ),
            metrics=reg.snapshot().diff(before),
            traces=traces,
            rootcause=rootcause,
        )

    # ------------------------------------------------------------ tracing

    def _assemble_traces(
        self,
        ids: np.ndarray,
        arrivals: np.ndarray,
        latencies: np.ndarray,
        rank: np.ndarray,
        table: _DispatchTable,
        winner: np.ndarray,
        records: Dict[Tuple[int, int], ServingRecord],
    ):
        """Sample and materialize the run's traces from the streams'
        serving records.

        Sampling happens here — at the only level where the end-to-end
        latency (across failover/hedge copies) exists: shed requests
        have infinite latency, so they violate any finite budget, and
        every request that needed more than one dispatch copy — or was
        shed — is force-retained, so no fault-touched request escapes
        the trace.  Each winner trace is the replica-side record wrapped
        with the routing hop: the unscaled ``route_wait`` (arrival ->
        winning dispatch) tagged with its cause, and the replica
        slowdown ``scale`` applied to the whole replica-side latency.
        """
        cfg = self.trace_config
        # More than one copy, or not won by its primary.
        forced = (np.bincount(table.index, minlength=len(ids)) > 1) | (
            rank != _KIND_RANK[DISPATCH_PRIMARY]
        )

        def winner_trace(i: int) -> RequestTrace:
            row = int(winner[i])
            if row < 0:
                return RequestTrace(
                    context=TraceContext(int(ids[i]), dispatch=SHED),
                    arrival=float(arrivals[i]),
                    latency=inf,
                    batch_index=-1,
                )
            replica = int(table.replica[row])
            incarnation = int(table.incarnation[row])
            kind = _DISPOSITIONS[rank[i]]
            at = float(table.at[row])
            trace = request_trace(
                records[(replica, incarnation)], int(table.pos[row])
            )
            trace.context = TraceContext(
                request_id=int(ids[i]),
                dispatch=kind,
                replica=replica,
                incarnation=incarnation,
            )
            trace.scale = self.schedule.replica_slow_factor(replica, at)
            trace.route_wait = at - float(arrivals[i])
            if kind == DISPATCH_HEDGE:
                trace.route_cause = "hedge_wait"
            elif kind == DISPATCH_FAILOVER:
                trace.route_cause = (
                    "breaker_fastfail"
                    if _CAUSES[table.cause[row]] == "breaker"
                    else "failover_redispatch"
                )
            trace.arrival = float(arrivals[i])
            trace.latency = float(latencies[i])
            return trace

        traces = sample_traces(
            cfg, self.obs, ids, latencies, forced, winner_trace
        )
        # No budget, no violators: not even a shed request's inf exceeds inf.
        budget = inf if cfg.sla_budget is None else cfg.sla_budget
        n_viol = int((latencies > budget).sum())
        causes = cause_counts(t for t in traces if t.latency > budget)
        served = [t for t in traces if not t.shed]
        tagged = sum(causes.values())
        rootcause = {
            "violations": n_viol,
            "tagged": tagged,
            "coverage": tagged / n_viol if n_viol else 1.0,
            "causes": causes,
            "conservation": {
                "checked": len(served),
                "ok": sum(1 for t in served if t.conserved),
            },
            "sampled": len(traces),
            "sampled_traces_tagged": sum(
                1 for t in traces if t.rootcause is not None
            ),
        }
        return traces, rootcause

    # ------------------------------------------------------------ reports

    def _staleness_alerts(
        self, episodes: Dict[int, _CrashEpisode], horizon: float
    ) -> List[Alert]:
        """Per-victim staleness alerts on the simulated beat clock.

        A crashed replica's applied version is pinned at its snapshot;
        the alert fires at the first heartbeat where the cluster's
        version frontier leads the snapshot by more than the staleness
        budget, and resolves at rejoin (when replay has caught up).
        """
        if self.update_log is None:
            return []
        alerts: List[Alert] = []
        for r in sorted(episodes):
            episode = episodes[r]
            snapshot = self.replicas[r].snapshot_
            if snapshot is None:
                continue
            resolve_at = self._restart_at(episode)
            limit = min(resolve_at, horizon)
            beat = int(ceil(episode.start / HEARTBEAT_INTERVAL))
            fired_at = None
            lag_at_fire = 0.0
            while True:
                t = beat * HEARTBEAT_INTERVAL
                if t >= limit:
                    break
                if t >= episode.start:
                    lag = (
                        self.update_log.latest_version(t)
                        - snapshot.model_version
                    )
                    if lag > STALENESS_BUDGET:
                        fired_at = t
                        lag_at_fire = float(lag)
                        break
                beat += 1
            if fired_at is None:
                continue
            resolved = isfinite(resolve_at)
            alerts.append(Alert(
                rule=f"replica{r}-staleness",
                slo="replica-staleness",
                state=RESOLVED if resolved else FIRING,
                fired_at=fired_at,
                fired_window=beat,
                burn_rate=lag_at_fire,
                peak_burn_rate=lag_at_fire,
                resolved_at=resolve_at if resolved else None,
                resolved_window=beat if resolved else None,
            ))
        return alerts

    def _replica_summaries(
        self, dispatched: np.ndarray, now: float
    ) -> Dict[int, dict]:
        summaries: Dict[int, dict] = {}
        for replica in self.replicas:
            r = replica.replica_id
            state = self.health[r].state_at(now) if self.health else HEALTHY
            self.obs.set_gauge(
                "cluster.replica_state", STATE_CODES[state], replica=str(r)
            )
            summary = {
                "dispatched": int(dispatched[r]),
                "incarnations": replica.incarnation + 1,
                "state": state,
                "transitions": (
                    self.health[r].to_payload() if self.health else []
                ),
            }
            if replica.subscriber is not None:
                lag = replica.subscriber.version_lag(now)
                summary["applied_version"] = replica.subscriber.applied_version
                summary["version_lag"] = lag
                self.obs.set_gauge(
                    "cluster.replica_version_lag", lag, replica=str(r)
                )
            summaries[r] = summary
        return summaries


__all__ = [
    "DISPATCH_FAILOVER",
    "DISPATCH_HEDGE",
    "DISPATCH_PRIMARY",
    "SHED",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRouter",
]
