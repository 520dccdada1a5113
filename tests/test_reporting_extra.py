"""Extra coverage for reporting and harness utilities."""

import os

import pytest

from repro.bench import reporting
from repro.bench.reporting import emit, format_table


class TestEmit:
    def test_writes_report_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        path = emit("my_report", "hello\nworld")
        assert os.path.exists(path)
        with open(path) as f:
            assert f.read() == "hello\nworld\n"
        assert "hello" in capsys.readouterr().out

    def test_overwrites_previous_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        emit("r", "first")
        path = emit("r", "second")
        with open(path) as f:
            assert f.read() == "second\n"

    def test_creates_directory(self, tmp_path, monkeypatch):
        target = tmp_path / "nested" / "dir"
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(target))
        emit("r", "x")
        assert target.exists()


class TestFormatTableEdges:
    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "-" in out

    def test_mixed_types(self):
        out = format_table(["k", "v"], [[1, 2.5], ["x", None]])
        assert "None" in out

    def test_no_title(self):
        out = format_table(["a"], [[1]])
        assert not out.startswith("\n")


class TestExecutorLaunchOverride:
    def test_launch_cost_override_reduces_maintenance(self, hw):
        from repro.gpusim.executor import Executor
        from repro.gpusim.kernel import KernelSpec

        spec = KernelSpec("k", threads=64)
        plain = Executor(hw)
        plain.launch(spec)
        cheap = Executor(hw)
        cheap.launch(spec, launch_cost=1e-7)
        assert cheap.stats.maintenance_time < plain.stats.maintenance_time
        assert cheap.stats.maintenance_time == pytest.approx(1e-7)

    def test_zero_launch_cost_allowed(self, hw):
        from repro.gpusim.executor import Executor
        from repro.gpusim.kernel import KernelSpec

        executor = Executor(hw)
        executor.launch(KernelSpec("k", threads=64), launch_cost=0.0)
        assert executor.stats.maintenance_time == 0.0


class TestCodecEdgeCases:
    def test_size_aware_with_64bit_keys_and_huge_corpus(self):
        from repro.coding.size_aware import SizeAwareCodec

        codec = SizeAwareCodec([2**40, 16], key_bits=64)
        big = codec.layout.code_for(0)
        assert big.collision_free

    def test_size_aware_minimal_key_width(self):
        from repro.coding.size_aware import SizeAwareCodec
        import numpy as np

        codec = SizeAwareCodec([2, 2], key_bits=8)
        a = codec.encode(0, np.arange(2, dtype=np.uint64))
        b = codec.encode(1, np.arange(2, dtype=np.uint64))
        assert len(np.intersect1d(a, b)) == 0

    def test_fixed_length_single_table(self):
        from repro.coding.fixed_length import FixedLengthCodec

        codec = FixedLengthCodec([100], key_bits=16)
        assert codec.layout.codes[0].feature_bits < 16

    def test_table_of_on_unknown_bits_returns_minus_one_free(self):
        """All keys produced by encode decode back to a valid table."""
        from repro.coding.size_aware import SizeAwareCodec
        import numpy as np

        sizes = [5, 50, 500]
        codec = SizeAwareCodec(sizes, key_bits=16)
        for t, size in enumerate(sizes):
            keys = codec.encode(t, np.arange(size, dtype=np.uint64))
            assert (codec.table_of(keys) == t).all()


class TestArtifactSchema:
    @pytest.fixture(autouse=True)
    def _results_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))

    def test_emit_json_stamps_version(self):
        path = reporting.emit_json("x", {"kind": "series", "windows": []})
        payload = reporting.load_artifact(path, kind="series")
        assert payload["version"] == reporting.SCHEMA_VERSION

    def test_emit_json_keeps_explicit_version(self):
        path = reporting.emit_json("x", {"version": 1, "a": 2})
        assert reporting.load_artifact(path)["version"] == 1

    def test_emit_json_leaves_lists_unstamped(self, tmp_path):
        path = reporting.emit_json("x", [1, 2, 3])
        with pytest.raises(reporting.ConfigError):
            reporting.load_artifact(path)

    def test_load_rejects_missing_version(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": 1}\n')
        with pytest.raises(reporting.ConfigError):
            reporting.load_artifact(str(path))
        path.write_text('{"version": "1"}\n')  # string, not integer
        with pytest.raises(reporting.ConfigError):
            reporting.load_artifact(str(path))

    def test_load_rejects_newer_version(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"version": %d}\n' % (reporting.SCHEMA_VERSION + 1))
        with pytest.raises(reporting.ConfigError):
            reporting.load_artifact(str(path))

    def test_load_rejects_kind_mismatch(self):
        path = reporting.emit_json("x", {"kind": "series"})
        with pytest.raises(reporting.ConfigError):
            reporting.load_artifact(path, kind="alerts")

    def test_emit_timeseries_writes_series_and_alerts(self):
        from conftest import HandRun
        from repro.obs import WindowedCollector, default_serving_slos

        collector = WindowedCollector(
            sla_budget=1e-3, engine=default_serving_slos(1e-3),
        )
        run = HandRun(collector)
        run.batch(0.5e-3, [5e-4])
        run.close(1e-3)
        paths = reporting.emit_timeseries(collector)
        assert [os.path.basename(p) for p in paths] == [
            "series.json", "alerts.json",
        ]
        series = reporting.load_artifact(paths[0], kind="series")
        assert series["closed_windows"] == collector.closed_windows
        reporting.load_artifact(paths[1], kind="alerts")
