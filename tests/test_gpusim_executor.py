"""Tests for the executor: clock choreography and accounting."""

import pytest

from repro.errors import SimulationError
from repro.gpusim.executor import Executor
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.stats import Category
from repro.gpusim.transfer import CopyMethod


def _kernel(threads=1024, nbytes=1 << 20):
    return KernelSpec("k", threads=threads, stream_bytes=nbytes)


class TestLaunch:
    def test_launch_charges_cpu_maintenance(self, executor, hw):
        executor.launch(_kernel())
        assert executor.cpu.now == pytest.approx(hw.kernel.launch_overhead)
        assert executor.stats.maintenance_time == pytest.approx(
            hw.kernel.launch_overhead
        )

    def test_launch_is_asynchronous(self, executor):
        done = executor.launch(_kernel())
        # CPU continues before the kernel completes.
        assert executor.cpu.now < done

    def test_kernels_on_one_stream_serialise(self, executor):
        s = executor.stream("s")
        end1 = executor.launch(_kernel(), stream=s)
        end2 = executor.launch(_kernel(), stream=s)
        assert end2 > end1

    def test_kernels_on_different_streams_overlap(self, executor, hw):
        a = executor.stream("a")
        b = executor.stream("b")
        end_a = executor.launch(_kernel(), stream=a)
        end_b = executor.launch(_kernel(), stream=b)
        # The second launch starts before the first completes.
        overlap = end_a - (end_b - (end_a - 0))  # sanity of construction
        assert end_b < 2 * end_a - hw.kernel.launch_overhead

    def test_launch_counts_kernels(self, executor):
        executor.launch(_kernel())
        executor.launch(_kernel())
        assert executor.stats.counters["kernel_launches"] == 2

    def test_launch_records_category(self, executor):
        executor.launch(_kernel(), category=Category.MLP)
        assert executor.stats.seconds[Category.MLP] > 0


class TestSynchronize:
    def test_sync_blocks_cpu_until_stream_drains(self, executor):
        end = executor.launch(_kernel())
        executor.synchronize(executor.default_stream)
        assert executor.cpu.now >= end

    def test_sync_all_waits_for_every_stream(self, executor):
        ends = [
            executor.launch(_kernel(), stream=executor.stream(f"s{i}"))
            for i in range(3)
        ]
        executor.synchronize(None)
        assert executor.cpu.now >= max(ends)

    def test_sync_charges_overhead(self, executor, hw):
        before = executor.stats.maintenance_time
        executor.synchronize(executor.default_stream)
        assert executor.stats.maintenance_time - before == pytest.approx(
            hw.kernel.sync_overhead
        )


class TestHostWork:
    def test_host_work_advances_cpu_only(self, executor):
        executor.host_work(1e-3, Category.DRAM_INDEX)
        assert executor.cpu.now == pytest.approx(1e-3)
        assert executor.default_stream.ready_time == 0.0

    def test_host_work_overlaps_device(self, executor):
        end = executor.launch(_kernel(nbytes=1 << 24))
        executor.host_work(1e-6, Category.DRAM_INDEX)
        # Host work finished long before the kernel.
        assert executor.cpu.now < end

    def test_negative_duration_rejected(self, executor):
        with pytest.raises(SimulationError):
            executor.host_work(-1.0, Category.OTHER)


class TestCopies:
    def test_sync_copy_blocks_cpu(self, executor, hw):
        # 1 MiB is past the GDRCopy crossover: the copy takes cudaMemcpy.
        assert executor.copy_engine.cost(1 << 20).method is CopyMethod.CUDAMEMCPY
        executor.copy(1 << 20, Category.DRAM_COPY)
        expected = hw.interconnect.cudamemcpy_overhead + (1 << 20) / hw.interconnect.pcie_bandwidth
        assert executor.cpu.now == pytest.approx(expected)

    def test_async_copy_frees_cpu(self, executor, hw):
        s = executor.stream("copy")
        executor.copy(1 << 24, Category.DRAM_COPY, async_stream=s)
        assert executor.cpu.now < s.ready_time

    def test_copy_overhead_is_maintenance(self, executor):
        executor.copy(128, Category.DRAM_COPY)
        assert executor.stats.maintenance_time > 0


class TestElapsedAndReset:
    def test_elapsed_is_max_of_clocks(self, executor):
        end = executor.launch(_kernel(nbytes=1 << 24))
        assert executor.elapsed() == pytest.approx(end)

    def test_drain_syncs_everything(self, executor):
        executor.launch(_kernel(), stream=executor.stream("x"))
        total = executor.drain()
        assert executor.cpu.now == pytest.approx(total)

    def test_reset_clears_all_state(self, executor):
        executor.launch(_kernel())
        executor.reset()
        assert executor.elapsed() == 0.0
        assert executor.stats.total() == 0.0

    def test_stream_identity_is_stable(self, executor):
        assert executor.stream("a") is executor.stream("a")
