"""Tests for the serving layer: arrivals, batching, the server loop."""

import numpy as np
import pytest

from repro.core.config import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError, WorkloadError
from repro.serving.arrivals import PoissonArrivals, Request
from repro.serving.arrivals import request_columns
from repro.serving.batcher import BatchingPolicy, batch_bounds
from repro.serving.server import InferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


@pytest.fixture(scope="module")
def dataset():
    return uniform_tables_spec(num_tables=4, corpus_size=2_000, dim=16)


class TestPoissonArrivals:
    def test_monotone_timestamps(self, dataset):
        reqs = PoissonArrivals(dataset, rate=1000.0, seed=1).generate(100)
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_rate_approximately_respected(self, dataset):
        reqs = PoissonArrivals(dataset, rate=10_000.0, seed=2).generate(5_000)
        span = reqs[-1].arrival_time - reqs[0].arrival_time
        assert 5_000 / span == pytest.approx(10_000.0, rel=0.1)

    def test_features_cover_all_tables(self, dataset):
        req = PoissonArrivals(dataset, rate=100.0).generate(1)[0]
        assert len(req.feature_ids) == dataset.num_tables
        for table, ids in enumerate(req.feature_ids):
            assert (ids < dataset.fields[table].corpus_size).all()

    def test_validation(self, dataset):
        with pytest.raises(WorkloadError):
            PoissonArrivals(dataset, rate=0.0)
        with pytest.raises(WorkloadError):
            PoissonArrivals(dataset, rate=10.0).generate(0)

    def test_deterministic_for_seed(self, dataset):
        a = PoissonArrivals(dataset, 100.0, seed=7).generate(10)
        b = PoissonArrivals(dataset, 100.0, seed=7).generate(10)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]


def _request(i, t):
    return Request(i, t, (np.array([i], np.uint64),))


def _times(reqs):
    return request_columns(reqs).arrivals


class TestBatcher:
    def test_size_trigger(self):
        reqs = [_request(i, i * 1e-6) for i in range(10)]
        stops, _ = batch_bounds(_times(reqs), BatchingPolicy(
            max_batch_size=4, max_delay=1.0))
        assert stops == [4, 8, 10]

    def test_timeout_trigger(self):
        # Two requests separated by more than the delay: two batches.
        reqs = [_request(0, 0.0), _request(1, 1.0)]
        policy = BatchingPolicy(max_batch_size=100, max_delay=1e-3)
        stops, formed_at = batch_bounds(_times(reqs), policy)
        assert stops == [1, 2]
        assert formed_at[0] == pytest.approx(1e-3)

    def test_batch_preserves_requests(self):
        reqs = [_request(i, i * 1e-6) for i in range(5)]
        stops, _ = batch_bounds(_times(reqs), BatchingPolicy(
            max_batch_size=3, max_delay=1.0))
        # Batches partition the stream contiguously, in order.
        assert stops == [3, 5]

    def test_out_of_order_stream_takes_the_reference_scan(self):
        times = np.array([0.0, 2e-3, 1e-3, 5e-3, 5.5e-3])
        stops, formed_at = batch_bounds(
            times, BatchingPolicy(max_batch_size=2, max_delay=1e-3)
        )
        assert stops == [1, 3, 5]
        assert formed_at == [1e-3, 1e-3, 5.5e-3]

    def test_formed_at_never_before_last_arrival_in_full_batch(self):
        reqs = [_request(i, i * 1e-4) for i in range(4)]
        policy = BatchingPolicy(max_batch_size=4, max_delay=10.0)
        _, formed_at = batch_bounds(_times(reqs), policy)
        assert formed_at[0] >= reqs[-1].arrival_time

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ConfigError):
            BatchingPolicy(max_delay=-1.0)


class TestInferenceServer:
    @pytest.fixture()
    def server(self, dataset, hw):
        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.2), hw)
        return InferenceServer(
            dataset, layer, hw,
            policy=BatchingPolicy(max_batch_size=64, max_delay=1e-3),
        )

    def test_serves_every_request(self, server, dataset):
        reqs = PoissonArrivals(dataset, 50_000.0, seed=5).generate(300)
        report = server.serve(reqs)
        assert report.served == 300
        assert len(report.latencies) == 300

    def test_latencies_exceed_batching_floor(self, server, dataset):
        reqs = PoissonArrivals(dataset, 1_000.0, seed=5).generate(50)
        report = server.serve(reqs)
        # Sparse traffic -> most batches seal on timeout, so latency is at
        # least near the batching delay for early arrivals in each batch.
        assert report.median_latency > 0
        assert report.p99_latency >= report.median_latency

    def test_sla_attainment_monotone_in_budget(self, server, dataset):
        reqs = PoissonArrivals(dataset, 50_000.0, seed=6).generate(300)
        report = server.serve(reqs)
        assert report.sla_attainment(1.0) >= report.sla_attainment(1e-3)
        assert report.sla_attainment(1e9) == 1.0

    def test_sla_budget_validation(self, server, dataset):
        reqs = PoissonArrivals(dataset, 50_000.0, seed=6).generate(50)
        report = server.serve(reqs)
        with pytest.raises(WorkloadError):
            report.sla_attainment(0.0)

    def test_higher_load_forms_bigger_batches(self, server, dataset):
        slow = PoissonArrivals(dataset, 5_000.0, seed=7).generate(200)
        fast = PoissonArrivals(dataset, 500_000.0, seed=7).generate(200)
        assert (server.serve(fast).mean_batch_size
                > server.serve(slow).mean_batch_size)

    def test_empty_stream_rejected(self, server):
        with pytest.raises(WorkloadError):
            server.serve([])

    def test_overload_raises_latency(self, server, dataset):
        light = PoissonArrivals(dataset, 20_000.0, seed=8).generate(400)
        heavy = PoissonArrivals(dataset, 2_000_000.0, seed=8).generate(400)
        assert (server.serve(heavy).p99_latency
                > server.serve(light).median_latency)
