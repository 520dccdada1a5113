"""Fault-injection framework and resilient fetch-path tests.

Covers the deterministic schedule/injector, the retry/hedge/breaker
client, graceful degradation through the hierarchy, and the headline
robustness claim: under a shard outage, retry+hedge+breaker with stale
degradation sustains strictly higher SLA attainment than the naive
retry-once model at equal offered load.
"""

import numpy as np
import pytest

from repro import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, DegradedServiceError
from repro.faults import (
    BreakerConfig,
    CircuitBreaker,
    DegradeConfig,
    DegradedLink,
    DramTierFailure,
    FaultInjector,
    FaultSchedule,
    ResilientFetchClient,
    RetryPolicy,
    ShardOutage,
    StaleStore,
    TransientTimeout,
)
from repro.faults.retry import CLOSED, HALF_OPEN, OPEN
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.server import InferenceServer
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs
from repro.workloads.synthetic import uniform_tables_spec

from conftest import dram_resident, query_table

US = 1e-6


@pytest.fixture()
def specs():
    return make_table_specs([2_000], [16])


class TestFaultSchedule:
    def test_windows_and_queries(self):
        schedule = FaultSchedule([
            ShardOutage(shard=1, start=1.0, duration=0.5),
            DegradedLink(factor=4.0, start=2.0, duration=1.0),
            TransientTimeout(probability=0.2, start=0.0, duration=10.0),
        ])
        assert schedule.shard_down(1, 1.2)
        assert not schedule.shard_down(1, 1.6)
        assert not schedule.shard_down(0, 1.2)
        assert schedule.link_factor(2.5) == 4.0
        assert schedule.link_factor(0.5) == 1.0
        assert schedule.timeout_probability(5.0) == 0.2
        assert schedule.timeout_probability(11.0) == 0.0

    def test_fault_windows_merge(self):
        schedule = FaultSchedule([
            ShardOutage(shard=0, start=1.0, duration=1.0),
            DramTierFailure(start=1.5, duration=1.0),
            ShardOutage(shard=2, start=4.0, duration=0.5),
        ])
        assert schedule.fault_windows() == [(1.0, 2.5), (4.0, 4.5)]

    def test_validation(self):
        with pytest.raises(ConfigError):
            TransientTimeout(probability=1.5)
        with pytest.raises(ConfigError):
            DegradedLink(factor=0.5)
        with pytest.raises(ConfigError):
            ShardOutage(shard=-1)
        with pytest.raises(ConfigError):
            DramTierFailure(start=0.0, duration=0.0)
        with pytest.raises(ConfigError):
            FaultSchedule(["not an event"])


class TestFaultInjector:
    def test_replay_is_exact(self):
        schedule = FaultSchedule([TransientTimeout(probability=0.5)])
        a = FaultInjector(schedule, seed=7)
        b = FaultInjector(schedule, seed=7)
        outcomes_a = [a.attempt(0, t * 0.01) for t in range(200)]
        outcomes_b = [b.attempt(0, t * 0.01) for t in range(200)]
        assert outcomes_a == outcomes_b
        a.reset()
        assert [a.attempt(0, t * 0.01) for t in range(200)] == outcomes_a

    def test_outage_beats_rng(self):
        schedule = FaultSchedule([ShardOutage(shard=0, duration=1.0)])
        injector = FaultInjector(schedule, seed=0)
        outcome = injector.attempt(0, 0.5)
        assert not outcome.ok and outcome.reason == "shard-outage"
        assert injector.attempt(0, 1.5).ok  # window closed


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(attempt_timeout=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(hedge_delay=2.0, attempt_timeout=1.0)

    def test_naive_matches_seed_model(self):
        policy = RetryPolicy.naive(timeout=5e-4)
        assert policy.max_attempts == 2
        assert policy.hedge_delay is None and policy.backoff_base == 0.0


class TestCircuitBreaker:
    def test_state_machine(self):
        config = BreakerConfig(
            failure_threshold=0.5, window=4, min_samples=2, cooldown=1.0
        )
        breaker = CircuitBreaker(config)
        assert breaker.state == CLOSED
        breaker.record(False, now=0.0)
        breaker.record(False, now=0.1)
        assert breaker.state == OPEN
        assert not breaker.allow(0.5)  # inside cooldown
        assert breaker.allow(1.2)  # cooldown over -> half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record(False, now=1.3)  # probe failed -> re-open
        assert breaker.state == OPEN
        assert breaker.allow(2.4)
        breaker.record(True, now=2.5)  # probe succeeded -> closed
        assert breaker.state == CLOSED
        assert breaker.open_time(2.5) == pytest.approx(1.1 + 1.1)


class TestResilientFetchClient:
    def _client(self, schedule, policy, breaker=None, seed=0):
        return ResilientFetchClient(
            FaultInjector(schedule, seed=seed), policy,
            num_shards=4, breaker=breaker, seed=seed,
        )

    def test_healthy_fetch_costs_base(self):
        client = self._client(FaultSchedule(), RetryPolicy())
        outcome = client.fetch(100 * US, shard=0, now=0.0)
        assert outcome.success and outcome.attempts == 1
        assert outcome.elapsed == pytest.approx(100 * US)

    def test_retry_timeline_sums_attempts(self):
        """An outage window forces real attempt timelines: timeout,
        backoff, then a successful attempt after the window closes."""
        policy = RetryPolicy(
            max_attempts=3, attempt_timeout=1_000 * US,
            backoff_base=500 * US, jitter=0.0,
        )
        schedule = FaultSchedule(
            [ShardOutage(shard=0, start=0.0, duration=1_200 * US)]
        )
        client = self._client(schedule, policy)
        outcome = client.fetch(100 * US, shard=0, now=0.0)
        # Attempt 1 at t=0 burns the timeout; after 500us backoff,
        # attempt 2 at t=1500us lands beyond the outage and succeeds.
        assert outcome.success and outcome.attempts == 2
        assert outcome.elapsed == pytest.approx((1_000 + 500 + 100) * US)
        assert client.obs.total("faults.retries") == 1

    def test_exhausted_budget_fails_with_honest_cost(self):
        policy = RetryPolicy(
            max_attempts=2, attempt_timeout=1_000 * US,
            backoff_base=200 * US, jitter=0.0,
        )
        schedule = FaultSchedule([ShardOutage(shard=0, duration=1.0)])
        client = self._client(schedule, policy)
        outcome = client.fetch(100 * US, shard=0, now=0.0)
        assert not outcome.success
        assert outcome.elapsed == pytest.approx((1_000 + 200 + 1_000) * US)
        assert client.obs.total("faults.failures") == 1

    def test_hedging_fires_and_wins(self):
        """With a 50% transient-timeout rate some primaries stall and a
        clean hedge completes first."""
        policy = RetryPolicy(
            max_attempts=2, attempt_timeout=1_000 * US,
            hedge_delay=300 * US, jitter=0.0,
        )
        schedule = FaultSchedule([TransientTimeout(probability=0.5)])
        client = self._client(schedule, policy, seed=5)
        for i in range(200):
            client.fetch(100 * US, shard=0, now=i * 0.01)
        assert client.obs.total("faults.hedges_fired") > 0
        assert client.obs.total("faults.hedge_wins") > 0

    def test_breaker_fails_fast_during_outage(self):
        policy = RetryPolicy(
            max_attempts=2, attempt_timeout=1_000 * US,
            backoff_base=100 * US, jitter=0.0,
        )
        breaker = BreakerConfig(
            failure_threshold=0.5, window=4, min_samples=2,
            cooldown=50_000 * US,
        )
        schedule = FaultSchedule([ShardOutage(shard=0, duration=1.0)])
        client = self._client(schedule, policy, breaker=breaker)
        first = client.fetch(100 * US, shard=0, now=0.0)
        assert not first.success and first.elapsed > 1_000 * US
        fast = client.fetch(100 * US, shard=0, now=0.01)
        assert not fast.success and fast.reason == "breaker-open"
        assert fast.elapsed == 0.0
        assert client.obs.total("faults.breaker_fast_fails") == 1
        assert client.breaker_open_time(0.01) > 0.0

    def test_breaker_recovers_after_cooldown(self):
        policy = RetryPolicy(max_attempts=1, attempt_timeout=1_000 * US)
        breaker = BreakerConfig(
            failure_threshold=0.5, window=4, min_samples=2,
            cooldown=10_000 * US,
        )
        schedule = FaultSchedule(
            [ShardOutage(shard=0, start=0.0, duration=5_000 * US)]
        )
        client = self._client(schedule, policy, breaker=breaker)
        client.fetch(100 * US, shard=0, now=0.0)
        client.fetch(100 * US, shard=0, now=0.002)  # trips the breaker
        rejected = client.fetch(100 * US, shard=0, now=0.005)
        assert rejected.reason == "breaker-open"
        # Past the cooldown the half-open probe goes out, the shard is
        # healthy again, and the breaker closes.
        probe = client.fetch(100 * US, shard=0, now=0.02)
        assert probe.success
        assert client.breakers[0].state == CLOSED


class TestDegradation:
    def test_stale_store_roundtrip(self):
        store = StaleStore()
        ids = np.array([3, 9], np.uint64)
        vectors = reference_vectors(0, ids, 16)
        store.update_many(np.zeros(2, np.uint64), ids, vectors.copy())
        got = store.get(0, np.array([9, 5], np.uint64), 16)
        np.testing.assert_array_equal(got[0], vectors[1])
        np.testing.assert_array_equal(got[1], np.zeros(16))

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            DegradeConfig(policy="hope")

    def _faulted_store(self, specs, hw, degrade, **kwargs):
        schedule = FaultSchedule([ShardOutage(shard=0, duration=1.0)])
        remote = RemoteParameterServer(
            specs,
            injector=FaultInjector(schedule, seed=0),
            retry_policy=RetryPolicy(
                max_attempts=2, attempt_timeout=500 * US,
                backoff_base=0.0, jitter=0.0,
            ),
            **kwargs,
        )
        return TieredParameterStore(
            specs, hw, dram_capacity=256, remote=remote, degrade=degrade
        )

    def test_stale_serving_counts_degraded_keys(self, specs, hw):
        store = self._faulted_store(specs, hw, DegradeConfig(policy="stale"))
        ids = np.array([1, 2], np.uint64)
        store.advance_to(2.0)  # healthy window: warm DRAM + stale shadow
        query_table(store, 0, ids)
        store.dram.flush()  # drop the LRU; the stale shadow survives
        store.advance_to(0.5)  # inside the outage
        result = query_table(store, 0, ids)
        np.testing.assert_array_equal(
            result.vectors, reference_vectors(0, ids, 16)
        )
        assert store.obs.total("tier.degraded_keys") == 2
        assert store.obs.total("tier.remote_failures") == 1

    def test_degraded_fallback_never_pollutes_dram(self, specs, hw):
        store = self._faulted_store(
            specs, hw, DegradeConfig(policy="default-vector")
        )
        ids = np.array([7], np.uint64)
        store.advance_to(0.5)
        result = query_table(store, 0, ids)
        np.testing.assert_array_equal(result.vectors, np.zeros((1, 16)))
        assert not dram_resident(store.dram, 0, 7)
        store.advance_to(2.0)  # outage over: the truth is fetched fresh
        np.testing.assert_array_equal(
            query_table(store, 0, ids).vectors, reference_vectors(0, ids, 16)
        )

    def test_fail_policy_raises(self, specs, hw):
        store = self._faulted_store(specs, hw, DegradeConfig(policy="fail"))
        store.advance_to(0.5)
        with pytest.raises(DegradedServiceError):
            query_table(store, 0, np.array([1], np.uint64))


def _serving_setup(hw, retry_policy, breaker, outage):
    """One resilient serving stack over a faulted tiered store."""
    dataset = uniform_tables_spec(
        num_tables=2, corpus_size=3_000, alpha=-1.2, dim=16
    )
    schedule = FaultSchedule([
        ShardOutage(shard=s, start=outage[0], duration=outage[1])
        for s in range(4)
    ])
    remote = RemoteParameterServer(
        dataset.table_specs(),
        injector=FaultInjector(schedule, seed=11),
        retry_policy=retry_policy,
        breaker=breaker,
    )
    store = TieredParameterStore(
        dataset.table_specs(), hw, dram_capacity=600, remote=remote,
        degrade=DegradeConfig(policy="stale"),
    )
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    server = InferenceServer(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
    )
    return dataset, server


class TestFaultAwareServing:
    HORIZON = 0.05
    OUTAGE = (0.02, 0.01)  # 20% of the run
    BUDGET = 2.5e-3
    RATE = 30_000.0

    def _run(self, hw, retry_policy, breaker):
        dataset, server = _serving_setup(
            hw, retry_policy, breaker, self.OUTAGE
        )
        requests = PoissonArrivals(
            dataset, self.RATE, seed=3
        ).generate_until(self.HORIZON)
        return server.serve(requests)

    def _resilient_policy(self):
        return RetryPolicy(
            max_attempts=3, attempt_timeout=400 * US,
            backoff_base=50 * US, backoff_cap=400 * US, jitter=0.2,
            hedge_delay=150 * US,
        )

    def test_resilient_beats_naive_under_outage(self, hw):
        """The headline robustness claim (acceptance criterion)."""
        naive = self._run(hw, RetryPolicy.naive(timeout=1e-3), breaker=None)
        resilient = self._run(
            hw,
            self._resilient_policy(),
            breaker=BreakerConfig(
                failure_threshold=0.5, window=8, min_samples=4,
                cooldown=5_000 * US,
            ),
        )
        naive_sla = naive.sla_attainment(self.BUDGET)
        resilient_sla = resilient.sla_attainment(self.BUDGET)
        assert resilient_sla > naive_sla
        # The report proves the mechanisms actually engaged.
        assert resilient.degraded_requests > 0
        assert resilient.retries > 0
        assert resilient.hedges_fired > 0
        assert resilient.breaker_open_time > 0.0
        assert naive.breaker_open_time == 0.0
        # SLA split: the healthy window is (nearly) unaffected, the
        # fault window is where attainment is lost.
        healthy = resilient.sla_attainment(self.BUDGET, window="healthy")
        faulty = resilient.sla_attainment(self.BUDGET, window="faulty")
        assert healthy >= faulty
        assert resilient.fault_windows == [(0.02, 0.03)]

    def test_replay_same_schedule_same_seed(self, hw):
        """(schedule, seed) fully determines the run."""
        first = self._run(
            hw, self._resilient_policy(),
            BreakerConfig(cooldown=5_000 * US),
        )
        second = self._run(
            hw, self._resilient_policy(),
            BreakerConfig(cooldown=5_000 * US),
        )
        np.testing.assert_array_equal(first.latencies, second.latencies)
        assert first.retries == second.retries
        assert first.hedges_fired == second.hedges_fired
        assert first.degraded_requests == second.degraded_requests
        assert first.breaker_open_time == second.breaker_open_time

    def test_seed_perturbs_timing_not_correctness(self, specs, hw):
        """Different seeds shuffle which attempts fail, never the data:
        with transient faults and enough retries every fetch eventually
        succeeds, and the vectors match the reference exactly."""
        schedule = FaultSchedule([TransientTimeout(probability=0.4)])
        for seed in (1, 2, 3):
            remote = RemoteParameterServer(
                specs,
                injector=FaultInjector(schedule, seed=seed),
                retry_policy=RetryPolicy(
                    max_attempts=8, attempt_timeout=500 * US,
                    backoff_base=10 * US,
                ),
            )
            store = TieredParameterStore(
                specs, hw, dram_capacity=128, remote=remote
            )
            rng = np.random.default_rng(99)
            for _ in range(10):
                ids = rng.integers(0, 2_000, 32).astype(np.uint64)
                result = query_table(store, 0, ids)
                np.testing.assert_array_equal(
                    result.vectors, reference_vectors(0, ids, 16)
                )
            assert store.obs.total("tier.degraded_keys") == 0
