"""Tests for the benchmark harness and reporting."""

import pytest

from repro.bench.harness import (
    ExperimentContext,
    make_context,
    run_scheme,
    scheme_factory,
    sweep,
    SCHEME_NAMES,
)
from repro.bench.reporting import format_rate, format_table, format_time


class TestReporting:
    def test_format_time_units(self):
        assert "ns" in format_time(5e-9)
        assert "us" in format_time(5e-6)
        assert "ms" in format_time(5e-3)
        assert format_time(2.0).endswith("s")

    def test_format_rate_units(self):
        assert "G/s" in format_rate(2e9)
        assert "M/s" in format_rate(2e6)
        assert "K/s" in format_rate(2e3)
        assert "/s" in format_rate(2)

    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [333, 4]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert len(set(len(line) for line in lines[1:])) == 1


class TestHarness:
    @pytest.fixture(scope="class")
    def context(self, hw):
        return make_context(
            dataset_name="avazu",
            batch_size=64,
            num_batches=6,
            scale=0.01,
            hw=hw,
        )

    def test_make_context_defaults(self, context):
        assert isinstance(context, ExperimentContext)
        assert context.cache_ratio == 0.05
        assert context.warmup == 3
        assert len(context.trace) - context.warmup == 3

    def test_scheme_factory_all_names(self, context):
        for name in SCHEME_NAMES:
            scheme = scheme_factory(name, context)()
            assert hasattr(scheme, "query")

    def test_scheme_factory_unknown(self, context):
        with pytest.raises(ValueError):
            scheme_factory("bogus", context)

    def test_run_scheme_embedding_only(self, context):
        result = run_scheme(context, "fleche")
        assert result.samples > 0
        assert result.elapsed > 0

    def test_run_scheme_end_to_end(self, context):
        result = run_scheme(context, "fleche", include_dense=True)
        assert result.last_probabilities is not None

    def test_config_overrides_forwarded(self, context):
        result = run_scheme(context, "fleche", use_fusion=False)
        assert result.elapsed > 0

    def test_sweep_runs_every_point(self, hw):
        def factory(batch_size):
            return make_context(
                "avazu", batch_size=batch_size, num_batches=4,
                scale=0.01, hw=hw,
            )

        results = sweep(factory, [16, 32], ["fleche", "hugectr"])
        assert set(results) == {16, 32}
        assert set(results[16]) == {"fleche", "hugectr"}
