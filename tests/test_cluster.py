"""Tests for the fault-tolerant multi-replica serving cluster."""

import dataclasses

import numpy as np
import pytest

from repro import (
    FlecheConfig,
    FlecheEmbeddingLayer,
    default_platform,
)
from repro.bench.harness import alert_timing, canonical_json
from repro.cluster import (
    DEAD,
    HEALTHY,
    RECOVERING,
    SUSPECT,
    ClusterConfig,
    ClusterReplica,
    ClusterRouter,
    HealthMonitor,
    LeastOutstandingPolicy,
    hot_head_victim,
    make_policy,
)
from repro.cluster import routing
from repro.cluster.replica import (
    CACHE_RATIO, DEPTH, MAX_BATCH_SIZE, MAX_DELAY,
)
from repro.errors import ConfigError, WorkloadError
from repro.faults import (
    BreakerConfig,
    FaultSchedule,
    HeartbeatLoss,
    ReplicaCrash,
    ReplicaSlowdown,
)
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.multigpu.partition import HashPartitioner
from repro.refresh import UpdateLog, UpdatePublisher, fingerprint
from repro.serving.arrivals import PoissonArrivals, Request
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

HORIZON = 0.03
RATE = 60_000.0
SLA = 2e-3
ARRIVAL_SEED = 5


@pytest.fixture(scope="module")
def hw():
    return default_platform()


@pytest.fixture(scope="module")
def dataset():
    return uniform_tables_spec(
        num_tables=2, corpus_size=4_000, alpha=-1.2, dim=8
    )


@pytest.fixture(scope="module")
def requests(dataset):
    return PoissonArrivals(
        dataset, RATE, seed=ARRIVAL_SEED
    ).generate_until(HORIZON)


def make_log(dataset, horizon=HORIZON, rounds=6, keys_per_round=48):
    specs = dataset.table_specs()
    log = UpdateLog(retention=1_000_000)
    publisher = UpdatePublisher(log, max_batch_keys=128)
    trainer = EmbeddingDeltaTrainer(
        [s.corpus_size for s in specs],
        [s.dim for s in specs],
        keys_per_round=keys_per_round, seed=11,
    )
    for i in range(rounds):
        publisher.drain(trainer, now=horizon * (i + 1) / (rounds + 1))
    return log


def crash_schedule(replica, start=0.01, duration=0.01):
    return FaultSchedule(
        [ReplicaCrash(replica=replica, start=start, duration=duration)]
    )


def counter(report, name):
    return report.metrics.to_dict()["counters"].get(name, 0)


class TestHealthStateMachine:
    def test_crash_walks_full_cycle(self):
        schedule = crash_schedule(replica=0, start=0.005, duration=0.008)
        monitor = HealthMonitor(schedule, num_replicas=2)
        timelines = monitor.observe(0.04)
        states = [t.state for t in timelines[0].transitions]
        assert states == [HEALTHY, SUSPECT, DEAD, RECOVERING, HEALTHY]
        assert [t.state for t in timelines[1].transitions] == [HEALTHY]

    def test_transitions_are_time_ordered(self):
        schedule = crash_schedule(replica=0, start=0.005, duration=0.008)
        monitor = HealthMonitor(schedule, num_replicas=1)
        transitions = monitor.observe(0.04)[0].transitions
        instants = [t.at for t in transitions]
        assert instants == sorted(instants)

    def test_short_heartbeat_flap_never_goes_dead(self):
        schedule = FaultSchedule(
            [HeartbeatLoss(replica=0, start=0.005, duration=0.0025)]
        )
        monitor = HealthMonitor(schedule, num_replicas=1)
        states = [t.state for t in monitor.observe(0.02)[0].transitions]
        assert states == [HEALTHY, SUSPECT, HEALTHY]
        assert DEAD not in states and RECOVERING not in states

    def test_unroutable_window_covers_outage(self):
        schedule = crash_schedule(replica=0, start=0.005, duration=0.008)
        monitor = HealthMonitor(schedule, num_replicas=1)
        windows = monitor.observe(0.04)[0].unroutable_windows()
        assert len(windows) == 1
        start, end = windows[0]
        assert start >= 0.005
        assert end >= 0.013  # readmission can only follow the restart

    def test_replay_debt_delays_readmission(self):
        schedule = crash_schedule(replica=0, start=0.005, duration=0.008)
        fast = HealthMonitor(schedule, 1).observe(
            0.08, replay_seconds=lambda r, t: 0.0
        )
        slow = HealthMonitor(schedule, 1).observe(
            0.08, replay_seconds=lambda r, t: 0.02
        )
        fast_ok = fast[0].first(HEALTHY, after=0.013)
        slow_ok = slow[0].first(HEALTHY, after=0.013)
        assert slow_ok > fast_ok


def routable_mask(num_replicas, n, replicas=None):
    """A ``(num_replicas, n)`` mask with ``replicas`` (default: all) set."""
    mask = np.zeros((num_replicas, n), bool)
    mask[list(range(num_replicas)) if replicas is None else replicas] = True
    return mask


def least_outstanding_model(arrivals, routable, window):
    """The policy's definition as a list model: per request, the
    routable replica (any replica when none is) with the fewest earlier
    primary choices still inside the window, lowest id on ties."""
    num, chosen, owners = len(routable), [], []
    for i, now in enumerate(arrivals):
        candidates = [r for r in range(num) if routable[r][i]] or range(num)
        load = [
            sum(1 for o, at in chosen if o == r and at > now - window)
            for r in range(num)
        ]
        owner = min(candidates, key=lambda r: (load[r], r))
        chosen.append((owner, now))
        owners.append(owner)
    return owners


class TestRoutingPolicies:
    @pytest.mark.parametrize(
        "name", ("hash", "table-shard", "least-outstanding")
    )
    def test_primary_deterministic_and_in_range(self, name, requests):
        stream = requests[:200]
        mask = routable_mask(4, len(stream))
        owners = make_policy(name, 4).primary_many(stream, mask)
        assert owners.dtype == np.int64 and owners.shape == (len(stream),)
        assert ((0 <= owners) & (owners < 4)).all()
        replay = make_policy(name, 4).primary_many(stream, mask)
        assert replay.tolist() == owners.tolist()

    @pytest.mark.parametrize(
        "name", ("hash", "table-shard", "least-outstanding")
    )
    def test_an_all_false_mask_makes_every_replica_a_candidate(
        self, name, requests
    ):
        stream = requests[:200]
        everyone = make_policy(name, 4).primary_many(
            stream, routable_mask(4, len(stream))
        )
        nobody = make_policy(name, 4).primary_many(
            stream, np.zeros((4, len(stream)), bool)
        )
        assert nobody.tolist() == everyone.tolist()

    def test_hash_matches_partitioner(self, requests):
        policy = make_policy("hash", 4)
        keys = np.asarray(
            [req.feature_ids[0][0] for req in requests], dtype=np.uint64
        )
        owners = policy.primary_many(requests, routable_mask(4, len(keys)))
        assert owners.tolist() == HashPartitioner(4).owner_of(keys).tolist()

    def test_least_outstanding_balances_load(self, requests):
        policy = make_policy("least-outstanding", 4)
        owners = policy.primary_many(
            requests, routable_mask(4, len(requests))
        )
        counts = np.bincount(owners, minlength=4)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 2.0

    def test_least_outstanding_avoids_unhealthy(self, requests):
        stream = requests[:50]
        policy = make_policy("least-outstanding", 4)
        owners = policy.primary_many(
            stream, routable_mask(4, len(stream), [2, 3])
        )
        assert set(owners.tolist()) == {2, 3}

    def test_least_outstanding_matches_a_list_model(self, monkeypatch):
        """At the window edge a choice made exactly ``SERVICE_WINDOW``
        earlier no longer counts, ties go to the lowest id, and the
        choices of one call are still counted by the next."""
        window = 0.25  # arrivals on a 1/8 grid: every difference is exact
        monkeypatch.setattr(routing, "SERVICE_WINDOW", window)
        rng = np.random.default_rng(7)
        arrivals = np.sort(rng.integers(0, 24, 120)) / 8.0
        routable = rng.random((3, len(arrivals))) < 0.6
        routable[:, ::11] = False  # nobody routable: everyone a candidate
        stream = [Request(i, t, ()) for i, t in enumerate(arrivals.tolist())]
        expected = least_outstanding_model(arrivals.tolist(), routable, window)
        policy = LeastOutstandingPolicy(3)
        half = len(stream) // 2
        owners = np.concatenate([
            policy.primary_many(stream[:half], routable[:, :half]),
            policy.primary_many(stream[half:], routable[:, half:]),
        ])
        assert owners.tolist() == expected
        # By hand: at 0.25 the first choice (at 0.0) has left the window,
        # so replicas 0 and 1 tie on one choice each and 0 wins.
        edge = [
            Request(i, t, ()) for i, t in enumerate([0, 0.125, 0.125, 0.25])
        ]
        policy = LeastOutstandingPolicy(2)
        owners = policy.primary_many(edge, routable_mask(2, len(edge)))
        assert owners.tolist() == [0, 1, 0, 0]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("round-robin", 4)

    def test_routing_keys_gather_equals_per_request_keys(self, requests):
        """One gather out of the stream's id cube gives each request's
        first id of table 0 — also for a list whose requests are rows of
        several cubes, or carry ids of their own."""
        policy = make_policy("hash", 4)
        expect = [int(r.feature_ids[0][0]) for r in requests]
        gathered = policy._routing_keys(requests)
        assert gathered.dtype == np.uint64
        assert gathered.tolist() == expect

        detached = [dataclasses.replace(r, source=None) for r in requests]
        assert policy._routing_keys(detached).tolist() == expect
        mixed = list(requests)
        mixed[len(mixed) // 2] = detached[len(mixed) // 2]
        assert policy._routing_keys(mixed).tolist() == expect
        other_cube = requests[3].source[0].copy()
        mixed[3] = dataclasses.replace(requests[3], source=(other_cube, 3))
        assert policy._routing_keys(mixed).tolist() == expect
        assert len(policy._routing_keys([])) == 0

    def test_routing_keys_empty_id_lists_route_by_request_id(self):
        policy = make_policy("hash", 4)
        cube = np.zeros((3, 2, 0), dtype=np.uint64)  # no ids per field
        requests = [
            Request(40 + i, 0.0, tuple(cube[i]), source=(cube, i))
            for i in range(3)
        ]
        assert policy._routing_keys(requests).tolist() == [40, 41, 42]
        assert policy._routing_keys(
            [dataclasses.replace(r, source=None) for r in requests]
        ).tolist() == [40, 41, 42]


class TestSingleReplicaParity:
    def test_unclustered_server_is_bit_identical(self, hw, dataset,
                                                 requests):
        """A 1-replica cluster without warm-up serves the exact same
        latencies as a bare PipelinedInferenceServer, and the bare
        server's registry never grows cluster.* metrics."""
        config = ClusterConfig(num_replicas=1, hot_keys=0)
        report = ClusterRouter(dataset, hw, config=config).serve(requests)

        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=CACHE_RATIO), hw
        )
        server = PipelinedInferenceServer(
            dataset, layer, hw,
            policy=BatchingPolicy(
                max_batch_size=MAX_BATCH_SIZE, max_delay=MAX_DELAY
            ),
            depth=DEPTH,
        )
        baseline = server.serve(requests)
        np.testing.assert_array_equal(report.latencies, baseline.latencies)
        assert not any(
            name.startswith("cluster.") for name, _ in server.obs.snapshot().counters
        )


class TestFailover:
    @pytest.fixture(scope="class")
    def drill(self, hw, dataset, requests):
        victim = hot_head_victim(dataset, ARRIVAL_SEED, 4)
        schedule = crash_schedule(victim, start=0.01, duration=0.012)
        config = ClusterConfig(
            num_replicas=4,
            breaker=BreakerConfig(
                failure_threshold=0.5, window=8, min_samples=4,
                cooldown=5e-3,
            ),
        )
        router = ClusterRouter(
            dataset, hw, config=config, schedule=schedule,
            update_log=make_log(dataset),
        )
        return victim, router, router.serve(requests)

    def test_crash_is_absorbed_without_shedding(self, drill):
        _, _, report = drill
        assert report.shed == 0
        assert report.disposition_counts()["failover"] > 0
        assert report.sla_attainment(SLA) >= 0.90

    def test_request_conservation(self, drill, requests):
        _, _, report = drill
        counters = report.metrics.to_dict()["counters"]
        served = (
            counters.get("cluster.served_primary", 0)
            + counters.get("cluster.served_failover", 0)
            + counters.get("cluster.served_hedge", 0)
            + counters.get("cluster.shed", 0)
        )
        assert counters["cluster.requests"] == len(requests) == served

    def test_no_failover_to_the_crashed_replica(self, drill):
        victim, _, report = drill
        start = report.episodes[0].start
        end = report.episodes[0].end
        for i, kind in enumerate(report.dispositions):
            if kind == "failover":
                assert report.latencies[i] > 0

        # the victim's own health window matches the scheduled outage
        windows = report.health[victim].unroutable_windows()
        assert windows and windows[0][0] >= start
        assert windows[0][1] >= end

    def test_victim_restarts_with_new_incarnation(self, drill):
        victim, router, report = drill
        assert report.per_replica[victim]["incarnations"] == 2
        for r, summary in report.per_replica.items():
            if r != victim:
                assert summary["incarnations"] == 1

    def test_replicas_converge_to_frontier(self, drill):
        _, _, report = drill
        for summary in report.per_replica.values():
            assert summary["version_lag"] == 0

    def test_unrouted_baseline_sheds_and_underperforms(
        self, hw, dataset, requests, drill
    ):
        victim, _, routed = drill
        schedule = crash_schedule(victim, start=0.01, duration=0.012)
        config = ClusterConfig(num_replicas=4, failover=False)
        baseline = ClusterRouter(
            dataset, hw, config=config, schedule=schedule,
            update_log=make_log(dataset),
        ).serve(requests)
        assert baseline.shed > 0
        assert baseline.sla_attainment(SLA) < routed.sla_attainment(SLA)

    def test_health_alert_brackets_outage(self, drill):
        _, _, report = drill
        episode = report.episodes[0]
        timing = alert_timing(report.alerts, episode.start, episode.end)
        assert timing["early_alerts"] == 0
        assert timing["ttd_s"] is not None
        assert timing["ttr_s"] is not None
        assert not timing["unresolved"]

    def test_staleness_alert_fires_during_outage(self, drill):
        victim, _, report = drill
        stale = [
            a for a in report.alerts
            if a.rule == f"replica{victim}-staleness"
        ]
        assert stale
        episode = report.episodes[0]
        for alert in stale:
            assert alert.fired_at >= episode.start
            assert alert.resolved_at is not None


class TestHedging:
    def test_slowdown_fires_hedges(self, hw, dataset, requests):
        victim = hot_head_victim(dataset, ARRIVAL_SEED, 3)
        schedule = FaultSchedule([
            ReplicaSlowdown(
                replica=victim, factor=6.0, start=0.005, duration=0.02
            )
        ])
        config = ClusterConfig(num_replicas=3, hedge_delay=5e-4)
        report = ClusterRouter(
            dataset, hw, config=config, schedule=schedule
        ).serve(requests)
        fired = counter(report, "cluster.hedges_fired")
        wins = counter(report, "cluster.hedge_wins")
        assert fired > 0
        assert 0 < wins <= fired

    def test_no_hedges_without_delay_config(self, hw, dataset, requests):
        schedule = FaultSchedule([
            ReplicaSlowdown(replica=0, factor=6.0, start=0.005,
                            duration=0.02)
        ])
        report = ClusterRouter(
            dataset, hw, config=ClusterConfig(num_replicas=3),
            schedule=schedule,
        ).serve(requests)
        assert counter(report, "cluster.hedges_fired") == 0


class TestRecovery:
    def test_snapshot_replay_converges_with_uninterrupted_peer(
        self, hw, dataset
    ):
        log = make_log(dataset)
        steady = ClusterReplica(0, dataset, hw)
        steady.warm_hot_keys(0, 64)
        steady.attach_refresh(log, now=0.0)
        steady.subscriber.catch_up(HORIZON)

        victim = ClusterReplica(1, dataset, hw)
        victim.warm_hot_keys(0, 64)
        victim.attach_refresh(log, now=0.0)
        victim.take_snapshot()
        victim.subscriber.catch_up(HORIZON / 2)
        victim.crash()
        assert not victim.alive
        with pytest.raises(ConfigError):
            victim.serve([object()])

        replayed = victim.recover(HORIZON)
        assert replayed > 0
        assert victim.incarnation == 1
        assert fingerprint(victim.layer.cache) == fingerprint(
            steady.layer.cache
        )

    def test_recover_without_snapshot_rejected(self, hw, dataset):
        replica = ClusterReplica(0, dataset, hw)
        replica.crash()
        with pytest.raises(ConfigError):
            replica.recover(0.01)

    def test_cold_restart_loses_cache_state(self, hw, dataset):
        replica = ClusterReplica(0, dataset, hw)
        replica.warm_hot_keys(0, 64)
        before = fingerprint(replica.layer.cache)
        replica.crash()
        replica.cold_restart()
        assert replica.incarnation == 1
        assert fingerprint(replica.layer.cache) != before


class TestDeterminism:
    def test_drill_replay_is_byte_identical(self, hw, dataset, requests):
        victim = hot_head_victim(dataset, ARRIVAL_SEED, 3)

        def run():
            router = ClusterRouter(
                dataset, hw,
                config=ClusterConfig(
                    num_replicas=3,
                    breaker=BreakerConfig(
                        failure_threshold=0.5, window=8, min_samples=4,
                        cooldown=5e-3,
                    ),
                ),
                schedule=crash_schedule(victim, start=0.01,
                                        duration=0.012),
                update_log=make_log(dataset),
            )
            return canonical_json(router.serve(requests).to_payload(SLA))

        assert run() == run()


class TestValidation:
    def test_empty_serve_rejected(self, hw, dataset):
        router = ClusterRouter(
            dataset, hw, config=ClusterConfig(num_replicas=1)
        )
        with pytest.raises(WorkloadError):
            router.serve([])

    def test_fault_event_validation(self):
        with pytest.raises(ConfigError):
            ReplicaCrash(replica=-1, start=0.0, duration=1.0)
        with pytest.raises(ConfigError):
            ReplicaSlowdown(replica=0, factor=0.5, start=0.0, duration=1.0)
        with pytest.raises(ConfigError):
            HeartbeatLoss(replica=-2, start=0.0, duration=1.0)
        with pytest.raises(ConfigError):
            ReplicaCrash(replica=0, start=0.0, duration=0.0)

    def test_cluster_config_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_replicas=0)
        with pytest.raises(ConfigError):
            ClusterConfig(hot_keys=-1)
        with pytest.raises(ConfigError):
            ClusterConfig(hedge_delay=0.0)

    def test_health_config_validation(self):
        with pytest.raises(ConfigError):
            HealthMonitor(FaultSchedule(), num_replicas=0)
        with pytest.raises(ConfigError):
            HealthMonitor(FaultSchedule(), num_replicas=1).observe(0.0)

    def test_multiple_crash_windows_per_replica_rejected(
        self, hw, dataset, requests
    ):
        schedule = FaultSchedule([
            ReplicaCrash(replica=0, start=0.002, duration=0.002),
            ReplicaCrash(replica=0, start=0.01, duration=0.002),
        ])
        router = ClusterRouter(
            dataset, hw, config=ClusterConfig(num_replicas=2),
            schedule=schedule,
        )
        with pytest.raises(ConfigError):
            router.serve(requests)

    def test_unrouted_config_round_trips_through_replace(self):
        config = ClusterConfig(num_replicas=4)
        unrouted = dataclasses.replace(config, failover=False)
        assert unrouted.failover is False
        assert unrouted.num_replicas == config.num_replicas
