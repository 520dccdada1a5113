"""Failure-injection tests: degraded and timing-out remote fetches.

Faults come from schedule events (:mod:`repro.faults`): a
``DegradedLink`` slows the network path, a ``TransientTimeout`` makes
attempts time out, and ``RetryPolicy.naive`` is the client that waits
out one timeout and retries once.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults import (
    DegradedLink,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    TransientTimeout,
)
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.tables.table_spec import make_table_specs

from conftest import query_table


@pytest.fixture()
def specs():
    return make_table_specs([2_000], [16])


def faulty_remote(specs, events, seed, timeout=1e-3):
    """A remote PS behind the naive retry-once client, faulted by
    ``events``."""
    return RemoteParameterServer(
        specs,
        seed=seed,
        injector=FaultInjector(FaultSchedule(events), seed=seed),
        retry_policy=RetryPolicy.naive(timeout=timeout),
    )


class TestNetworkFaults:
    def test_defaults_are_deterministic(self, specs):
        a = RemoteParameterServer(specs, seed=1)
        b = RemoteParameterServer(specs, seed=2)
        ids = np.arange(50, dtype=np.uint64)
        assert (
            a.fetch(0, ids, 0.0).network_time
            == b.fetch(0, ids, 0.0).network_time
        )

    def test_slow_path_multiplies_latency(self, specs):
        slow_ps = faulty_remote(specs, [DegradedLink(factor=10.0)], seed=3)
        fast_ps = RemoteParameterServer(specs, seed=3)
        ids = np.arange(100, dtype=np.uint64)
        assert slow_ps.fetch(0, ids, 0.0).network_time == pytest.approx(
            10.0 * fast_ps.fetch(0, ids, 0.0).network_time
        )

    def test_timeout_adds_retry_penalty(self, specs):
        # Every attempt issued in the first 0.5 ms times out: the first
        # one does, its retry at 0.5 ms does not.
        ps = faulty_remote(
            specs, [TransientTimeout(duration=5e-4, probability=1.0)],
            seed=4, timeout=5e-4,
        )
        ids = np.arange(10, dtype=np.uint64)
        healthy_time = RemoteParameterServer(specs).fetch(
            0, ids, 0.0
        ).network_time
        result = ps.fetch(0, ids, 0.0)
        assert result.success
        # The naive client is exactly "wait out the timeout, the retry
        # wins at the healthy cost".
        assert result.network_time == pytest.approx(healthy_time + 5e-4)

    def test_fault_rate_approximately_respected(self, specs):
        ps = faulty_remote(
            specs, [TransientTimeout(probability=0.3)], seed=5
        )
        ids = np.arange(10, dtype=np.uint64)
        base = RemoteParameterServer(specs).fetch(0, ids, 0.0).network_time
        slow = sum(
            1 for _ in range(500)
            if ps.fetch(0, ids, 0.0).network_time > 5 * base
        )
        assert slow / 500 == pytest.approx(0.3, abs=0.07)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TransientTimeout(probability=1.5)
        with pytest.raises(ConfigError):
            TransientTimeout(probability=-0.1)
        with pytest.raises(ConfigError):
            DegradedLink(factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy.naive(timeout=0.0)


class TestFaultsThroughTheHierarchy:
    def test_faulty_remote_inflates_tail_but_not_correctness(self, specs, hw):
        """Degraded fetches slow the tiered store; the data stays exact."""
        from repro.tables.embedding_table import reference_vectors

        flaky = faulty_remote(specs, [DegradedLink(factor=20.0)], seed=7)
        store = TieredParameterStore(
            specs, hw, dram_capacity=64, remote=flaky
        )
        healthy_store = TieredParameterStore(specs, hw, dram_capacity=64)
        rng = np.random.default_rng(11)
        flaky_time = healthy_time = 0.0
        for _ in range(20):
            ids = rng.integers(0, 2_000, 64).astype(np.uint64)
            r1 = query_table(store, 0, ids)
            r2 = query_table(healthy_store, 0, ids)
            np.testing.assert_array_equal(
                r1.vectors, reference_vectors(0, ids, 16)
            )
            np.testing.assert_array_equal(r1.vectors, r2.vectors)
            assert r1.degraded_keys == 0
            flaky_time += r1.cost.total
            healthy_time += r2.cost.total
        assert flaky_time > 1.5 * healthy_time

    def test_bigger_dram_tier_shields_from_flaky_remote(self, specs, hw):
        """The DRAM tier is the failure-isolation layer: more capacity,
        fewer remote trips, less fault exposure."""
        def total_time(capacity):
            flaky = faulty_remote(specs, [DegradedLink(factor=20.0)], seed=9)
            store = TieredParameterStore(
                specs, hw, dram_capacity=capacity, remote=flaky
            )
            rng = np.random.default_rng(13)
            total = 0.0
            for _ in range(25):
                ids = rng.integers(0, 500, 64).astype(np.uint64)
                total += query_table(store, 0, ids).cost.total
            return total

        assert total_time(600) < total_time(32)
