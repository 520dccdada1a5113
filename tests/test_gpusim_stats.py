"""Tests for the time-accounting breakdown."""

import pytest

from repro.gpusim.stats import Category, TimeBreakdown


class TestTimeBreakdown:
    def test_add_accumulates_per_category(self):
        b = TimeBreakdown()
        b.add(Category.MAINTENANCE, 1.0)
        b.add(Category.MAINTENANCE, 2.0)
        assert b.maintenance_time == pytest.approx(3.0)

    def test_execution_time_sums_kernel_categories(self):
        b = TimeBreakdown()
        b.add(Category.CACHE_INDEX, 1.0)
        b.add(Category.CACHE_COPY, 2.0)
        b.add(Category.MLP, 4.0)
        b.add(Category.MAINTENANCE, 100.0)  # not execution
        assert b.execution_time == pytest.approx(7.0)

    def test_cache_query_time(self):
        b = TimeBreakdown()
        b.add(Category.CACHE_INDEX, 1.0)
        b.add(Category.CACHE_COPY, 0.5)
        b.add(Category.DRAM_INDEX, 9.0)
        assert b.cache_query_time == pytest.approx(1.5)

    def test_dram_query_time(self):
        b = TimeBreakdown()
        b.add(Category.DRAM_INDEX, 1.0)
        b.add(Category.DRAM_COPY, 2.0)
        assert b.dram_query_time == pytest.approx(3.0)

    def test_total_over_all_categories(self):
        b = TimeBreakdown()
        b.add(Category.OTHER, 1.0)
        b.add(Category.MLP, 1.0)
        assert b.total() == pytest.approx(2.0)

    def test_counters(self):
        b = TimeBreakdown()
        for _ in range(4):
            b.count("kernel_launches")
        assert b.counters["kernel_launches"] == 4

    def test_merged_with(self):
        a = TimeBreakdown()
        a.add(Category.MLP, 1.0)
        a.count("x")
        c = TimeBreakdown()
        c.add(Category.MLP, 2.0)
        c.count("x")
        c.count("x")
        merged = a.merged_with(c)
        assert merged.seconds[Category.MLP] == pytest.approx(3.0)
        assert merged.counters["x"] == 3
        # Originals untouched.
        assert a.seconds[Category.MLP] == pytest.approx(1.0)

    def test_reset(self):
        b = TimeBreakdown()
        b.add(Category.OTHER, 5.0)
        b.count("e")
        b.reset()
        assert b.total() == 0.0
        assert not b.counters
