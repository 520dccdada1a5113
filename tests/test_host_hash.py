"""Tests for the host DRAM cost model."""

import pytest

from repro.hashindex.host_hash import host_query_cost


class TestHostQueryCost:
    def test_index_time_scales_with_keys(self, hw):
        a = host_query_cost(hw, 100, 0)
        b = host_query_cost(hw, 1000, 0)
        assert b.index_time == pytest.approx(10 * a.index_time)

    def test_copy_time_scales_with_bytes(self, hw):
        a = host_query_cost(hw, 0, 1 << 20)
        b = host_query_cost(hw, 0, 1 << 22)
        assert b.copy_time == pytest.approx(4 * a.copy_time)

    def test_zero_work_costs_nothing(self, hw):
        cost = host_query_cost(hw, 0, 0)
        assert cost.total == 0.0

    def test_lookup_threads_divide_latency(self, hw):
        import dataclasses

        single = dataclasses.replace(hw, cpu=dataclasses.replace(hw.cpu, lookup_threads=1))
        multi = dataclasses.replace(hw, cpu=dataclasses.replace(hw.cpu, lookup_threads=4))
        assert host_query_cost(single, 1000, 0).index_time == pytest.approx(
            4 * host_query_cost(multi, 1000, 0).index_time
        )

    def test_custom_probes(self, hw):
        import dataclasses

        base = host_query_cost(hw, 100, 0)
        deeper = dataclasses.replace(
            hw, cpu=dataclasses.replace(
                hw.cpu, host_hash_probes=2 * hw.cpu.host_hash_probes
            )
        )
        deep = host_query_cost(deeper, 100, 0)
        assert deep.index_time == pytest.approx(2 * base.index_time)
