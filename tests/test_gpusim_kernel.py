"""Tests for the kernel roofline cost model."""

import pytest

from repro.errors import SimulationError
from repro.gpusim.kernel import KernelSpec, coalesced_bytes, kernel_execution_time


class TestCoalescedBytes:
    def test_rounds_up_to_transactions(self):
        assert coalesced_bytes(1, 128) == 128
        assert coalesced_bytes(128, 128) == 128
        assert coalesced_bytes(129, 128) == 256

    def test_zero_is_zero(self):
        assert coalesced_bytes(0, 128) == 0

    def test_dim16_and_dim32_cost_the_same(self):
        # The memory-coalescing effect the paper observes in Exp #10:
        # 16-dim (64 B) and 32-dim (128 B) embeddings both take one
        # 128 B transaction.
        assert coalesced_bytes(16 * 4, 128) == coalesced_bytes(32 * 4, 128)

    def test_dim64_costs_double(self):
        assert coalesced_bytes(64 * 4, 128) == 2 * coalesced_bytes(32 * 4, 128)


class TestKernelSpec:
    def test_rejects_negative_threads(self):
        with pytest.raises(SimulationError):
            KernelSpec("k", threads=-1)

    def test_rejects_negative_work(self):
        with pytest.raises(SimulationError):
            KernelSpec("k", threads=1, stream_bytes=-5)


class TestExecutionTime:
    def test_zero_threads_costs_nothing(self, hw):
        spec = KernelSpec("k", threads=0)
        assert kernel_execution_time(spec, hw) == 0.0

    def test_includes_fixed_cost(self, hw):
        spec = KernelSpec("k", threads=1)
        assert kernel_execution_time(spec, hw) >= hw.kernel.kernel_fixed_cost

    def test_memory_bound_scales_with_bytes(self, hw):
        small = KernelSpec("k", threads=1024, stream_bytes=1 << 20)
        large = KernelSpec("k", threads=1024, stream_bytes=1 << 24)
        t_small = kernel_execution_time(small, hw)
        t_large = kernel_execution_time(large, hw)
        assert t_large > t_small
        # Once fixed costs amortise, the ratio approaches the byte ratio.
        assert (t_large - hw.kernel.kernel_fixed_cost) == pytest.approx(
            16 * (t_small - hw.kernel.kernel_fixed_cost), rel=1e-6
        )

    def test_random_traffic_slower_than_streaming(self, hw):
        nbytes = 1 << 22
        stream = KernelSpec("s", threads=1024, stream_bytes=nbytes)
        random = KernelSpec(
            "r", threads=1024,
            random_transactions=nbytes // hw.gpu.transaction_bytes,
        )
        assert kernel_execution_time(random, hw) > kernel_execution_time(stream, hw)

    def test_compute_bound_uses_flops(self, hw):
        spec = KernelSpec("k", threads=1024, flops=1e9)
        expected_busy = 1e9 / (hw.gpu.peak_flops * hw.gpu.flops_efficiency)
        total = kernel_execution_time(spec, hw)
        assert total == pytest.approx(hw.kernel.kernel_fixed_cost + expected_busy)

    def test_roofline_takes_max_not_sum(self, hw):
        mem_only = KernelSpec("m", threads=64, stream_bytes=1 << 22)
        both = KernelSpec("b", threads=64, stream_bytes=1 << 22, flops=1.0)
        assert kernel_execution_time(both, hw) == pytest.approx(
            kernel_execution_time(mem_only, hw)
        )

    def test_dependent_hops_add_latency_for_big_launches(self, hw):
        # More threads than can be resident -> extra waves of latency.
        resident = hw.gpu.max_resident_threads
        one_wave = KernelSpec("k", threads=resident, dependent_hops=2.0)
        two_waves = KernelSpec("k", threads=resident + 1, dependent_hops=2.0)
        assert kernel_execution_time(two_waves, hw) >= kernel_execution_time(
            one_wave, hw
        )
