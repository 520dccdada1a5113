"""Tests for multi-GPU flat caching (paper §5 future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlecheConfig
from repro.errors import ConfigError
from repro.multigpu.model_parallel import InterconnectCost, MultiGpuFlatCache
from repro.multigpu.partition import HashPartitioner, TablePartitioner
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs


@pytest.fixture()
def specs():
    return make_table_specs([2000, 3000], [16, 16])


class TestHashPartitioner:
    def test_deterministic(self):
        p = HashPartitioner(4)
        keys = np.arange(100, dtype=np.uint64)
        np.testing.assert_array_equal(p.owner_of(keys), p.owner_of(keys))

    def test_owners_in_range(self):
        p = HashPartitioner(3)
        owners = p.owner_of(np.arange(1000, dtype=np.uint64))
        assert owners.min() >= 0 and owners.max() < 3

    def test_roughly_balanced(self):
        p = HashPartitioner(4)
        owners = p.owner_of(np.arange(40_000, dtype=np.uint64))
        counts = np.bincount(owners, minlength=4)
        assert counts.max() / counts.min() < 1.1

    def test_rejects_zero_gpus(self):
        with pytest.raises(ConfigError):
            HashPartitioner(0)


class TestHashPartitionerProperties:
    """Hypothesis property coverage for the ownership hash."""

    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=1, max_size=64,
        ),
        num_gpus=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_owner_deterministic_across_dtypes(self, keys, num_gpus):
        """The owner of a key is a property of its value, not the dtype
        the caller happened to hand in (values < 2**31 fit all three)."""
        p = HashPartitioner(num_gpus)
        reference = p.owner_of(np.asarray(keys, dtype=np.uint64))
        for dtype in (np.int64, np.uint32, np.int32):
            np.testing.assert_array_equal(
                p.owner_of(np.asarray(keys, dtype=dtype)), reference
            )

    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1),
            min_size=1, max_size=64,
        ),
        num_gpus=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_owner_stable_and_in_range(self, keys, num_gpus):
        p = HashPartitioner(num_gpus)
        arr = np.asarray(keys, dtype=np.uint64)
        owners = p.owner_of(arr)
        np.testing.assert_array_equal(owners, p.owner_of(arr))
        assert owners.min() >= 0 and owners.max() < num_gpus

    @given(num_gpus=st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_covers_every_gpu_at_scale(self, num_gpus):
        """With enough keys every GPU owns something — no dead shards."""
        p = HashPartitioner(num_gpus)
        owners = p.owner_of(np.arange(2048 * num_gpus, dtype=np.uint64))
        assert set(np.unique(owners)) == set(range(num_gpus))


class TestTablePartitionerProperties:
    """Hypothesis property coverage for explicit table assignments."""

    @given(
        num_gpus=st.integers(min_value=1, max_value=8),
        num_tables=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_rejects_wrong_length_assignment(
        self, num_gpus, num_tables, data
    ):
        wrong_length = data.draw(
            st.integers(min_value=0, max_value=num_tables * 2).filter(
                lambda n: n != num_tables
            )
        )
        assignment = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_gpus - 1),
                min_size=wrong_length, max_size=wrong_length,
            )
        )
        with pytest.raises(ConfigError):
            TablePartitioner(num_gpus, num_tables, assignment=assignment)

    @given(
        num_gpus=st.integers(min_value=1, max_value=8),
        num_tables=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_rejects_out_of_range_owner(self, num_gpus, num_tables, data):
        assignment = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_gpus - 1),
                min_size=num_tables, max_size=num_tables,
            )
        )
        bad_index = data.draw(
            st.integers(min_value=0, max_value=num_tables - 1)
        )
        bad_owner = data.draw(
            st.sampled_from([-1, num_gpus, num_gpus + 3])
        )
        assignment[bad_index] = bad_owner
        with pytest.raises(ConfigError):
            TablePartitioner(num_gpus, num_tables, assignment=assignment)

    @given(
        num_gpus=st.integers(min_value=1, max_value=8),
        num_tables=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_valid_assignment_round_trips(self, num_gpus, num_tables, data):
        assignment = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_gpus - 1),
                min_size=num_tables, max_size=num_tables,
            )
        )
        p = TablePartitioner(num_gpus, num_tables, assignment=assignment)
        np.testing.assert_array_equal(
            p.owner_of_tables(np.arange(num_tables)), assignment
        )


class TestTablePartitioner:
    def test_round_robin_default(self):
        p = TablePartitioner(num_gpus=2, num_tables=5)
        np.testing.assert_array_equal(
            p.owner_of_tables(np.arange(5)), [0, 1, 0, 1, 0]
        )

    def test_custom_assignment(self):
        p = TablePartitioner(2, 3, assignment=[1, 1, 0])
        assert p.owner_of_tables(np.array([0]))[0] == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            TablePartitioner(2, 3, assignment=[0, 1])
        with pytest.raises(ConfigError):
            TablePartitioner(2, 3, assignment=[0, 1, 5])


class TestInterconnectCost:
    def test_latency_floor(self):
        ic = InterconnectCost()
        assert ic.transfer_time(1) >= ic.latency

    def test_zero_bytes_free(self):
        assert InterconnectCost().transfer_time(0) == 0.0

    def test_bandwidth_scaling(self):
        ic = InterconnectCost()
        assert ic.transfer_time(1 << 24) > ic.transfer_time(1 << 20)


class TestMultiGpuFlatCache:
    def _cluster(self, specs, num_gpus, ratio=0.1):
        return MultiGpuFlatCache(
            specs,
            FlecheConfig(cache_ratio=ratio, use_unified_index=False),
            hw=__import__("repro").default_platform(),
            num_gpus=num_gpus,
        )

    def test_capacity_scales_with_gpus(self, specs):
        one = self._cluster(specs, 1)
        four = self._cluster(specs, 4)
        def slots(cluster):
            return sum(shard.capacity_slots for shard in cluster.shards)

        assert slots(four) == pytest.approx(4 * slots(one), rel=0.01)

    def test_no_duplication_across_shards(self, specs):
        cluster = self._cluster(specs, 3)
        cluster.tick()
        keys = cluster.codec.encode(0, np.arange(60, dtype=np.uint64))
        rows = reference_vectors(0, np.arange(60, dtype=np.uint64), 16)
        cluster.insert_unique(keys, rows, dim=16)
        resident = sum(len(shard.index) for shard in cluster.shards)
        assert resident == 60  # each key lives on exactly one GPU

    def test_query_returns_correct_vectors(self, specs):
        cluster = self._cluster(specs, 2)
        cluster.tick()
        ids = np.arange(40, dtype=np.uint64)
        keys = cluster.codec.encode(1, ids)
        rows = reference_vectors(1, ids, 16)
        cluster.insert_unique(keys, rows, dim=16)
        outcome = cluster.query_unique(
            np.full(40, 1), keys, dim=16
        )
        assert outcome.hit_mask.all()
        for pos, row in outcome.vectors.items():
            np.testing.assert_array_equal(row, rows[pos])

    def test_remote_hits_pay_interconnect(self, specs):
        cluster = self._cluster(specs, 4)
        cluster.tick()
        ids = np.arange(200, dtype=np.uint64)
        keys = cluster.codec.encode(0, ids)
        rows = reference_vectors(0, ids, 16)
        cluster.insert_unique(keys, rows, dim=16)
        outcome = cluster.query_unique(np.zeros(200), keys, dim=16)
        assert outcome.gather_time > 0

    def test_single_gpu_pays_no_gather(self, specs):
        cluster = self._cluster(specs, 1)
        cluster.tick()
        ids = np.arange(50, dtype=np.uint64)
        keys = cluster.codec.encode(0, ids)
        cluster.insert_unique(keys, reference_vectors(0, ids, 16), dim=16)
        outcome = cluster.query_unique(np.zeros(50), keys, dim=16)
        assert outcome.gather_time == 0.0

    def test_shard_step_bounded_by_slowest(self, specs):
        cluster = self._cluster(specs, 2)
        cluster.tick()
        keys = cluster.codec.encode(0, np.arange(100, dtype=np.uint64))
        outcome = cluster.query_unique(np.zeros(100), keys, dim=16)
        assert outcome.shard_time >= 0
        assert sum(outcome.per_gpu_keys) == 100

    def test_load_imbalance_near_one_for_hash(self, specs):
        cluster = self._cluster(specs, 4)
        keys = cluster.codec.encode(0, np.arange(2000, dtype=np.uint64) % 2000)
        counts = np.bincount(cluster.partitioner.owner_of(keys), minlength=4)
        assert counts.max() / counts.mean() < 1.3

    def test_bigger_cluster_holds_bigger_hot_set(self, specs):
        """The §5 motivation: N GPUs cache ~N x the embeddings."""
        small = self._cluster(specs, 1, ratio=0.02)
        large = self._cluster(specs, 4, ratio=0.02)
        small.tick(); large.tick()
        ids = np.arange(400, dtype=np.uint64)
        keys = small.codec.encode(1, ids)
        rows = reference_vectors(1, ids, 16)
        inserted_small = small.insert_unique(keys, rows, dim=16)
        inserted_large = large.insert_unique(keys, rows, dim=16)
        assert inserted_large > inserted_small

    def test_validation(self, specs):
        with pytest.raises(ConfigError):
            self._cluster(specs, 0)
