"""The array planner against the per-request reference planner.

``ClusterRouter.serve`` asks its routing policy for every primary of a
stream at once and plans the whole stream as array masks.  The
per-request planner below is the reference: it walks the same owners
one request at a time, the way the router planned before the array
planner existed.  For random fault schedules the two must produce
identical dispatch columns — planned, executed and merged — and
identical reports.  Arrivals are pinned onto every window edge the
planner compares against (crash start / end, detection, rejoin,
restart, and the instants a timeout or a hedge delay would land on
them), two requests per edge, so boundary and tie behaviour are always
exercised.
"""

import copy
import dataclasses
import hashlib
from math import inf, isfinite

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import default_platform
from repro.bench.harness import canonical_json
from repro.cluster import ClusterConfig, ClusterRouter, HealthMonitor
from repro.cluster import replica as replica_module
from repro.cluster.router import (
    _CAUSES,
    _COLUMNS,
    _KIND_RANK,
    DISPATCH_FAILOVER,
    DISPATCH_HEDGE,
    DISPATCH_PRIMARY,
    _DispatchTable,
)
from repro.faults import (
    BreakerConfig,
    FaultSchedule,
    HeartbeatLoss,
    ReplicaCrash,
    ReplicaSlowdown,
)
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.obs.reqtrace import TraceConfig
from repro.refresh import UpdateLog, UpdatePublisher
from repro.serving.arrivals import PoissonArrivals
from repro.workloads.synthetic import uniform_tables_spec

HW = default_platform()
DATASET = uniform_tables_spec(
    num_tables=2, corpus_size=2_000, alpha=-1.2, dim=8
)
REPLICAS = 3
HORIZON = 0.02
BASE_REQUESTS = PoissonArrivals(DATASET, 16_000.0, seed=3).generate_until(
    HORIZON
)
DISPATCH_TIMEOUT = 1e-3
HEDGE_DELAY = 3e-4
#: A short cooldown, so the breaker opens, half-opens and re-trips inside
#: one undetected-crash window; a window longer than ``min_samples``, so
#: the successes recorded before the crash delay the first trip.
BREAKER = BreakerConfig(
    failure_threshold=0.5, window=6, min_samples=2, cooldown=4e-4
)


def make_log():
    specs = DATASET.table_specs()
    log = UpdateLog(retention=1_000_000)
    publisher = UpdatePublisher(log, max_batch_keys=64)
    trainer = EmbeddingDeltaTrainer(
        [s.corpus_size for s in specs], [s.dim for s in specs],
        keys_per_round=32, seed=11,
    )
    for i in range(5):
        publisher.drain(trainer, now=HORIZON * (i + 1) / 6)
    return log


LOG = make_log()


@pytest.fixture(autouse=True, scope="module")
def small_replica_batches():
    """Replicas seal batches of 16 requests, not 64, so the short streams
    here still run several batches per replica."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replica_module, "MAX_BATCH_SIZE", 16)
        yield

#: Event instants sit on a half-beat grid, so some fall exactly on
#: heartbeats (``k * 1e-3``) and some between them.
grid = st.integers(min_value=1, max_value=36).map(lambda k: k * 5e-4)
durations = st.sampled_from([5e-4, 1e-3, 2.5e-3, 4e-3, 8e-3, inf])
replicas = st.integers(min_value=0, max_value=REPLICAS - 1)
events = st.one_of(
    st.builds(ReplicaCrash, start=grid, duration=durations, replica=replicas),
    st.builds(
        ReplicaSlowdown, start=grid, duration=durations, replica=replicas,
        factor=st.sampled_from([1.0, 2.0, 5.0]),
    ),
    st.builds(HeartbeatLoss, start=grid, duration=durations, replica=replicas),
)


@st.composite
def scenarios(draw):
    drawn = draw(st.lists(events, max_size=4))
    crashed, kept = set(), []
    for event in drawn:  # the router supports one crash per replica
        if isinstance(event, ReplicaCrash):
            if event.replica in crashed:
                continue
            crashed.add(event.replica)
        kept.append(event)
    config = ClusterConfig(
        num_replicas=REPLICAS,
        policy=draw(st.sampled_from(
            ["hash", "table-shard", "least-outstanding"]
        )),
        hot_keys=32,
        failover=draw(st.booleans()),
        breaker=BREAKER if draw(st.booleans()) else None,
        hedge_delay=HEDGE_DELAY if draw(st.booleans()) else None,
    )
    return (
        config, FaultSchedule(kept),
        LOG if draw(st.booleans()) else None,
        TraceConfig(head_interval=7, sla_budget=2e-3)
        if draw(st.booleans()) else None,
    )


def ring_walk(router, owner, at):
    """The scalar reference for ``_fallback_targets``: the next replica
    on the ring that is routable *and* actually up, or None."""
    num = router.config.num_replicas
    for k in range(1, num):
        cand = (owner + k) % num
        if router.health[cand].routable_at(at) and not (
            router.schedule.replica_crashed(cand, at)
        ):
            return cand
    return None


def plan_per_request(router, owners, arrivals, episodes):
    """Plan one request at a time, in stream order, into the columns the
    array planner fills — the reference it is tested against."""
    cfg = router.config
    reg = router.obs
    rows = []
    stream = zip(owners.tolist(), arrivals.tolist())
    for index, (owner, t) in enumerate(stream):
        episode = episodes.get(owner)
        breaker = router.breakers.get(owner)
        at, cause, hedge = t, "", False
        if not cfg.failover:
            # Unrouted baseline: shed while the owner is down or still
            # replaying after its restart.
            if episode is not None and (
                episode.start <= t < episode.recover_done
            ):
                continue
        elif episode is not None and t >= episode.start:
            if t >= episode.rejoin_at:
                pass
            elif t >= episode.detect_at:
                cause = "health"
            elif breaker is not None and not breaker.allow(t):
                # Undetected-dead window, breaker open: skip the dead
                # replica without waiting out the dispatch timeout.
                reg.inc("cluster.breaker_rejections")
                cause = "breaker"
            else:
                # The send is lost; the breaker learns from it.
                if breaker is not None:
                    breaker.record(False, t)
                reg.inc("cluster.lost_dispatches")
                at, cause = t + DISPATCH_TIMEOUT, "timeout"
        elif not router.health[owner].routable_at(t):
            # Suspect/dead from heartbeat loss alone: route away.
            cause = "health"
        else:
            if episode is not None and breaker is not None:
                breaker.record(True, t)
            hedge = cfg.hedge_delay is not None and (
                router.schedule.replica_slow_factor(owner, t) > 1.0
            )
        sends = [(
            DISPATCH_FAILOVER if cause else DISPATCH_PRIMARY,
            ring_walk(router, owner, at) if cause else owner,
            at, cause,
        )]
        if hedge:
            hedge_at = t + cfg.hedge_delay
            sends.append((
                DISPATCH_HEDGE, ring_walk(router, owner, hedge_at),
                hedge_at, "",
            ))
        for kind, replica, send_at, why in sends:
            if replica is not None:
                rows.append((
                    index, replica, send_at,
                    _KIND_RANK[kind], _CAUSES.index(why),
                ))
    table = router._new_table(episodes)
    if rows:
        table.append(*(np.array(column) for column in zip(*rows)))
    return table


def build(config, schedule, log, trace, per_request):
    router = ClusterRouter(
        DATASET, HW, config, schedule=schedule, update_log=log, trace=trace
    )
    if per_request:
        router._plan_arrays = lambda owners, arrivals, routable, episodes: (
            plan_per_request(router, owners, arrivals, episodes)
        )
    return router


def pin_to_edges(requests, router, schedule):
    """Move one request per owner onto every instant the planner
    compares with, so each replica's stream sees each edge."""
    _, episodes = router._detect(
        np.array([r.arrival_time for r in requests])
    )
    edges = {b for e in schedule.events for b in (e.start, e.end)}
    for e in episodes.values():
        edges |= {e.detect_at, e.rejoin_at, e.recover_done}
    edges |= {
        edge - shift for edge in edges
        for shift in (DISPATCH_TIMEOUT, HEDGE_DELAY)
    }
    last = requests[-1].arrival_time
    edges = sorted(b for b in edges if isfinite(b) and 0.0 < b < last)
    # A copy, so a load-aware policy's state is the router's own.
    owners = copy.deepcopy(router.policy).primary_many(
        requests, np.ones((REPLICAS, len(requests)), bool)
    ).tolist()
    # Latest request ids first, so ids stop being monotone in time and
    # stream order has to break ties by id.
    movable = {
        r: [i for i in range(len(requests) - 2, 0, -1) if owners[i] == r]
        for r in range(REPLICAS)
    }
    retimed = list(requests)
    for edge in edges:
        for queue in movable.values():
            if queue:
                i = queue.pop(0)
                retimed[i] = dataclasses.replace(
                    retimed[i], arrival_time=edge
                )
    return sorted(retimed, key=lambda r: r.arrival_time)


def serve_capturing_table(router, requests):
    captured = []
    merge = router._merge

    def spy(table, arrivals):
        captured.append(table)
        return merge(table, arrivals)

    router._merge = spy
    report = router.serve(requests)
    return report, captured[0]


def report_view(report):
    view = {
        "latencies": report.latencies.tobytes(),
        "arrival_times": report.arrival_times.tobytes(),
        "dispositions": report.dispositions,
        "per_replica": report.per_replica,
        "alerts": [a.to_dict() for a in report.alerts],
        "episodes": report.episodes,
        "metrics": report.metrics.to_dict(),
        "rootcause": report.rootcause,
    }
    if report.traces is not None:
        view["traces"] = canonical_json(report.trace_payload(2e-3))
    return view


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@example((
    # A rejoined victim inside a slowdown window is served by its owner
    # again but, unlike a steady replica, never hedged.
    ClusterConfig(
        num_replicas=REPLICAS, hot_keys=32,
        hedge_delay=HEDGE_DELAY, breaker=BREAKER,
    ),
    FaultSchedule([
        ReplicaCrash(replica=0, start=0.004, duration=0.002),
        ReplicaSlowdown(replica=0, start=0.002, duration=inf, factor=5.0),
        ReplicaSlowdown(replica=1, start=0.009, duration=0.004, factor=2.0),
    ]),
    LOG, None,
))
@example((
    # Two victims: the first crash is too short to be detected, so the
    # replica is never marked dead, its owner's sends stay lost, and a
    # failover planned into its already-run stream never executes.
    ClusterConfig(
        num_replicas=REPLICAS, hot_keys=32, breaker=BREAKER,
    ),
    FaultSchedule([
        ReplicaCrash(replica=1, start=0.003, duration=5e-4),
        ReplicaCrash(replica=0, start=0.006, duration=0.004),
    ]),
    None, TraceConfig(head_interval=7, sla_budget=2e-3),
))
@example((
    # Load-aware routing around a drained replica: a heartbeat loss
    # takes replica 2 out of the routable mask before replica 0 crashes.
    ClusterConfig(
        num_replicas=REPLICAS, policy="least-outstanding", hot_keys=32,
        hedge_delay=HEDGE_DELAY, breaker=BREAKER,
    ),
    FaultSchedule([
        HeartbeatLoss(replica=2, start=0.002, duration=0.004),
        ReplicaCrash(replica=0, start=0.005, duration=0.004),
        ReplicaSlowdown(replica=1, start=0.008, duration=0.004, factor=5.0),
    ]),
    LOG, None,
))
@given(scenarios())
def test_array_planner_matches_per_request_planner(scenario):
    config, schedule, log, trace = scenario
    fast = build(config, schedule, log, trace, per_request=False)
    requests = pin_to_edges(BASE_REQUESTS, fast, schedule)
    reference = build(config, schedule, log, trace, per_request=True)

    fast_report, fast_table = serve_capturing_table(fast, requests)
    ref_report, ref_table = serve_capturing_table(reference, requests)

    for column in _COLUMNS:
        assert np.array_equal(
            getattr(fast_table, column), getattr(ref_table, column)
        ), column
    assert report_view(fast_report) == report_view(ref_report)
    assert fast.obs.audit() == [] and reference.obs.audit() == []
    # A served router is spent once a replica has crashed; otherwise a
    # second stream must find both routers in the same state.
    if not any(isinstance(e, ReplicaCrash) for e in schedule.events):
        again = report_view(fast.serve(requests))
        assert again == report_view(reference.serve(requests))


def test_table_stamps_incarnations_and_merge_breaks_ties():
    table = _DispatchTable(restart_at=np.array([inf, 0.005]))
    #        request: 0      0      1      1      2      3      3
    table.append(
        index=np.array([0, 0, 1, 1, 2, 3, 3]),
        replica=np.array([0, 1, 1, 1, 0, 1, 0]),
        at=np.array([0.005, 0.004, 0.005, 0.006, 0.001, 0.002, 0.002]),
        kind_rank=np.array([2, 0, 1, 1, 0, 1, 1]),
        cause=0,
    )
    # Sends reach the new incarnation from the restart instant on.
    assert table.incarnation.tolist() == [0, 0, 1, 1, 0, 0, 0]
    table.finish[:] = [0.01, 0.01, 0.02, 0.02, 0.009, 0.03, 0.01]
    table.valid[:] = [True, True, True, True, False, True, True]
    router = ClusterRouter(
        DATASET, HW, ClusterConfig(num_replicas=2, hot_keys=0)
    )
    latencies, winner = router._merge(table, np.zeros(4))
    # Request 0: equal finish, the primary beats the hedge.  Request 1:
    # equal finish and kind, plan order decides.  Request 2: its only
    # send was lost, so it is shed.  Request 3: the earlier finish wins.
    assert winner.tolist() == [1, 2, -1, 6]
    assert latencies.tolist() == [0.01, 0.02, inf, 0.01]


def test_fallback_targets_match_scalar_ring_walk():
    schedule = FaultSchedule([
        ReplicaCrash(replica=1, start=0.004, duration=0.006),
        HeartbeatLoss(replica=2, start=0.008, duration=0.005),
    ])
    router = ClusterRouter(
        DATASET, HW, ClusterConfig(num_replicas=REPLICAS, hot_keys=0),
        schedule=schedule,
    )
    router._detect(np.array([r.arrival_time for r in BASE_REQUESTS]))
    at = np.concatenate([
        np.arange(1, 40) * 5e-4,
        np.array([r.arrival_time for r in BASE_REQUESTS[:60]]),
    ])
    for owner in range(REPLICAS):
        owners = np.full(len(at), owner)
        expected = [
            -1 if target is None else target
            for target in (ring_walk(router, owner, t) for t in at)
        ]
        assert router._fallback_targets(owners, at).tolist() == expected


class TestBulkTimelineQueries:
    """``*_many`` against their scalar counterparts at window edges."""

    SCHEDULE = FaultSchedule([
        ReplicaCrash(replica=0, start=0.002, duration=0.003),
        ReplicaCrash(replica=0, start=0.005, duration=0.001),  # abutting
        ReplicaCrash(replica=1, start=0.004, duration=inf),
        ReplicaSlowdown(replica=0, start=0.001, duration=0.004, factor=2.0),
        ReplicaSlowdown(replica=0, start=0.003, duration=0.004, factor=6.0),
        ReplicaSlowdown(replica=0, start=0.0035, duration=0.001, factor=3.0),
        ReplicaSlowdown(replica=2, start=0.0, duration=0.002, factor=1.0),
    ])

    @staticmethod
    def probes(instants):
        edges = np.array(sorted(instants))
        return np.concatenate([
            np.nextafter(edges, -inf), edges, np.nextafter(edges, inf),
            [0.0, 1.0],
        ])

    def test_crashed_and_slow_factor(self):
        times = self.probes(
            {b for e in self.SCHEDULE.events for b in (e.start, e.end)
             if isfinite(b)}
        )
        for replica in range(4):
            assert self.SCHEDULE.crashed_many(replica, times).tolist() == [
                self.SCHEDULE.replica_crashed(replica, t) for t in times
            ]
            assert self.SCHEDULE.slow_factor_many(
                replica, times
            ).tolist() == [
                self.SCHEDULE.replica_slow_factor(replica, t) for t in times
            ]

    def test_empty_schedule_and_empty_query(self):
        empty = FaultSchedule()
        times = np.array([0.0, 0.5])
        assert empty.crashed_many(0, times).tolist() == [False, False]
        assert empty.slow_factor_many(0, times).tolist() == [1.0, 1.0]
        assert self.SCHEDULE.crashed_many(0, np.empty(0)).shape == (0,)

    def test_routable_many(self):
        schedule = FaultSchedule([
            ReplicaCrash(replica=0, start=0.003, duration=0.006),
            HeartbeatLoss(replica=1, start=0.004, duration=0.0025),
        ])
        timelines = HealthMonitor(schedule, 3).observe(0.03)
        for timeline in timelines.values():
            times = self.probes({t.at for t in timeline.transitions})
            assert timeline.routable_many(times).tolist() == [
                timeline.routable_at(t) for t in times
            ]


def faulty_scenario():
    schedule = FaultSchedule([
        ReplicaCrash(replica=0, start=0.006, duration=0.008),
        ReplicaSlowdown(replica=1, start=0.004, duration=0.010, factor=6.0),
    ])
    config = dict(
        num_replicas=REPLICAS, hot_keys=32, hedge_delay=5e-4, breaker=BREAKER,
    )
    return schedule, config


def payload_digest(report):
    return hashlib.sha256(
        canonical_json(report.to_payload(2e-3)).encode()
    ).hexdigest()


def test_least_outstanding_is_planned_from_its_own_choices_under_faults():
    schedule, config = faulty_scenario()
    router = ClusterRouter(
        DATASET, HW, ClusterConfig(policy="least-outstanding", **config),
        schedule=schedule, update_log=LOG,
    )
    report = router.serve(BASE_REQUESTS)
    counts = report.disposition_counts()
    assert counts["failover"] > 0 and counts["hedge"] > 0
    assert payload_digest(report) == LEAST_OUTSTANDING_DIGEST


@pytest.mark.parametrize("policy", ["hash", "table-shard"])
def test_stateless_policies_never_reach_the_per_request_planner(policy):
    """The router has only the array planner; under faults it still
    produces the payloads pinned before that planner existed."""
    schedule, config = faulty_scenario()
    router = ClusterRouter(
        DATASET, HW, ClusterConfig(policy=policy, **config),
        schedule=schedule, update_log=LOG,
    )
    assert payload_digest(router.serve(BASE_REQUESTS)) == PRE_PR_DIGESTS[policy]


#: sha256 of ``canonical_json(report.to_payload(2e-3))`` for
#: :func:`faulty_scenario` under ``least-outstanding``.  Re-pinned once,
#: when the policy began to name all its primaries in one
#: ``primary_many`` call and to count only its own primary choices.  The
#: per-request planner had also counted the failover, hedge and
#: in-flight re-sends it planned, at their future send instants, and
#: dropped expired ones only from the front of each window, so under
#: faults its counts depended on plan order.  With no faults the two
#: definitions agree on every primary.
LEAST_OUTSTANDING_DIGEST = (
    "ba3fa6d6f386d60bc4b8648d54133b534fe8c50c4a71fcd1b90e1b9f1c7afb7f"
)
#: The same digest for the stateless policies, unchanged since the commit
#: before the array planner existed (per-request planner for every
#: policy), except ``table-shard``'s, re-pinned once when victim sorts
#: began to break stamp ties by slot: its replicas then demote other
#: equal-stamp entries.
PRE_PR_DIGESTS = {
    "hash": "0a4a87dc27b8168d0b76deb66877b9a682ac74fa6284d431d9cf9c8e5d0bd748",
    "table-shard":
        "655d4e80578b4a741039d9722d4ba64fdb2cc42ee749a3138a70df5519a238d0",
}
