"""Tests for per-tenant SLA attribution in the windowed collector.

``set_tenancy`` maps request positions to tenants and gives each tenant
its own latency budget; the collector then emits labelled
``requests{tenant=...}`` / ``sla{tenant=...}`` series.  Without tenancy
no per-tenant series exist at all (byte-identity contract).
"""

import pytest

from repro.errors import ConfigError
from repro.obs import WindowedCollector
from repro.scenarios import MultiTenantScenario, validate_load
from repro.workloads.synthetic import uniform_tables_spec
from conftest import HandRun


def _names(collector):
    """Series names across the collector's retained windows."""
    return set().union(*(record.values for record in collector.windows))


def _bound(**kwargs):
    return WindowedCollector(window=1e-3, **kwargs)


class TestTenancyConfig:
    def test_rejects_nonpositive_budget(self):
        collector = _bound()
        with pytest.raises(ConfigError):
            collector.set_tenancy(["a"], {"a": 0.0})

    def test_none_disables(self):
        collector = _bound(sla_budget=1e-3)
        run = HandRun(collector)
        collector.set_tenancy(["a", "b"], {"a": 1e-3})
        collector.set_tenancy(None)
        run.batch(0.5e-3, [1e-4, 2e-4])
        run.close(1e-3)
        assert not any("tenant=" in n for n in _names(collector))


class TestAttribution:
    def test_latencies_split_by_position(self):
        collector = _bound(sla_budget=1e-3)
        run = HandRun(collector)
        collector.set_tenancy(
            ["a", "a", "b", "b"], {"a": 5e-4, "b": 2e-4},
        )
        # One batch covering requests 0..3; a's latencies within its
        # 0.5 ms budget, b's split around its 0.2 ms budget.
        run.batch(0.5e-3, [1e-4, 4e-4, 1e-4, 3e-4])
        run.close(1e-3)
        win = collector.windows[0]
        assert win.value("requests{tenant=a}") == 2.0
        assert win.value("requests{tenant=b}") == 2.0
        assert win.value("sla{tenant=a}") == 1.0
        assert win.value("sla{tenant=b}") == 0.5

    def test_batches_partition_the_stream(self):
        collector = _bound(sla_budget=1e-3)
        run = HandRun(collector)
        collector.set_tenancy(["a", "b", "a", "b"], {})
        run.batch(0.2e-3, [1e-4, 1e-4])
        run.batch(0.4e-3, [1e-4, 1e-4])
        run.close(1e-3)
        win = collector.windows[0]
        assert win.value("requests{tenant=a}") == 2.0
        assert win.value("requests{tenant=b}") == 2.0

    def test_tenant_without_slo_falls_back_to_global(self):
        collector = _bound(sla_budget=2e-4)
        run = HandRun(collector)
        collector.set_tenancy(["c", "c"], {})
        run.batch(0.5e-3, [1e-4, 3e-4])
        run.close(1e-3)
        assert collector.windows[0].value("sla{tenant=c}") == 0.5

    def test_only_active_tenants_emit(self):
        collector = _bound(sla_budget=1e-3)
        run = HandRun(collector)
        collector.set_tenancy(["a", "a", "z"], {"z": 1e-4})
        run.batch(0.5e-3, [1e-4, 1e-4])
        run.close(1e-3)
        names = _names(collector)
        assert "requests{tenant=a}" in names
        assert "requests{tenant=z}" not in names

    def test_buckets_clear_between_windows(self):
        collector = _bound(sla_budget=1e-3)
        run = HandRun(collector)
        collector.set_tenancy(["a"] * 8, {})
        run.batch(0.5e-3, [1e-4, 1e-4])
        run.batch(1.5e-3, [1e-4])
        run.close(2e-3)
        assert collector.windows[0].value("requests{tenant=a}") == 2.0
        assert collector.windows[1].value("requests{tenant=a}") == 1.0


class TestScenarioIntegration:
    def test_multi_tenant_load_declares_consistent_tenancy(self):
        dataset = uniform_tables_spec(
            num_tables=2, corpus_size=1_000, alpha=-1.2, dim=8,
        )
        load = MultiTenantScenario(
            dataset, seed=3, duration=4e-3,
        ).build()
        validate_load(load, dataset)
        assert load.tenant_of is not None
        assert len(load.tenant_of) == len(load.requests)
        assert set(load.tenant_slos) == set(load.tenant_of)
        collector = _bound(sla_budget=1e-3)
        run = HandRun(collector, requests=len(load.requests))
        collector.set_tenancy(load.tenant_of, load.tenant_slos)
        for i, request in enumerate(load.requests):
            run.batch(request.arrival_time + 1e-4, [1e-4])
        run.close(load.duration + 1e-3)
        names = set()
        for win in collector.windows:
            names.update(win.values)
        for tenant in sorted(set(load.tenant_of)):
            assert f"requests{{tenant={tenant}}}" in names
