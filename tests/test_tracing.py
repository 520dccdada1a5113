"""Tests for the executor timeline tracer."""

import json

import pytest

from repro.gpusim.executor import Executor
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.stats import Category
from repro.gpusim.tracing import Span
from repro.obs.spans import SpanTracer
from repro.errors import SimulationError


def _kernel(name="k", threads=1024, nbytes=1 << 20):
    return KernelSpec(name, threads=threads, stream_bytes=nbytes)


@pytest.fixture()
def traced(hw):
    executor = Executor(hw)
    recorder = SpanTracer.attach(executor)
    return executor, recorder


class TestSpanCapture:
    def test_launch_produces_cpu_and_stream_spans(self, traced):
        executor, recorder = traced
        executor.launch(_kernel("idx"))
        tracks = {s.track for s in recorder.spans}
        assert "cpu" in tracks
        assert any(t.startswith("stream:") for t in tracks)
        names = {s.name for s in recorder.spans}
        assert "launch:idx" in names and "idx" in names

    def test_kernel_span_duration_matches_model(self, traced, hw):
        from repro.gpusim.kernel import kernel_execution_time

        executor, recorder = traced
        spec = _kernel("big", nbytes=1 << 24)
        executor.launch(spec)
        span = next(s for s in recorder.spans if s.name == "big")
        assert span.duration == pytest.approx(
            kernel_execution_time(spec, hw)
        )

    def test_host_work_span(self, traced):
        executor, recorder = traced
        executor.host_work(1e-4, Category.DRAM_INDEX)
        span = recorder.spans[-1]
        assert span.track == "cpu"
        assert span.duration == pytest.approx(1e-4)
        assert span.category == "dram_index"

    def test_copy_and_sync_spans(self, traced):
        executor, recorder = traced
        executor.copy(4096, Category.DRAM_COPY)
        executor.synchronize(None)
        names = [s.name for s in recorder.spans]
        assert "copy:4096B" in names
        assert "sync:all" in names

    def test_timing_unchanged_by_tracing(self, hw):
        plain = Executor(hw)
        traced = Executor(hw)
        SpanTracer.attach(traced)
        for executor in (plain, traced):
            executor.launch(_kernel())
            executor.host_work(5e-5, Category.OTHER)
            executor.copy(1 << 16, Category.DRAM_COPY)
            executor.synchronize(None)
        assert traced.elapsed() == pytest.approx(plain.elapsed())
        assert traced.stats.total() == pytest.approx(plain.stats.total())

    def test_overlap_visible_in_spans(self, traced):
        """Host work issued after an async launch overlaps the kernel."""
        executor, recorder = traced
        executor.launch(_kernel("long", nbytes=1 << 25))
        executor.host_work(1e-5, Category.DRAM_INDEX)
        kernel_span = next(s for s in recorder.spans if s.name == "long")
        host_span = next(s for s in recorder.spans if s.name.startswith("host:"))
        assert host_span.start < kernel_span.start + kernel_span.duration


class TestRecorderQueries:
    def test_tracks_cpu_first(self, traced):
        executor, recorder = traced
        executor.launch(_kernel(), stream=executor.stream("zeta"))
        assert recorder.tracks()[0] == "cpu"

    def test_busy_time(self, traced):
        executor, recorder = traced
        executor.host_work(2e-4, Category.OTHER)
        assert recorder.busy_time("cpu") >= 2e-4

    def test_clear(self, traced):
        executor, recorder = traced
        executor.host_work(1e-5, Category.OTHER)
        recorder.clear()
        assert not recorder.spans

    def test_negative_span_rejected(self):
        with pytest.raises(SimulationError):
            Span("cpu", "bad", 0.0, -1.0, "other")


class TestChromeExport:
    def test_events_well_formed(self, traced):
        executor, recorder = traced
        executor.launch(_kernel("idx"))
        executor.synchronize(None)
        trace = recorder.to_chrome_trace()
        assert "traceEvents" in trace
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["dur"] >= 0
            assert isinstance(event["ts"], float)

    def test_thread_names_emitted(self, traced):
        executor, recorder = traced
        executor.launch(_kernel())
        meta = [e for e in recorder.to_chrome_trace()["traceEvents"]
                if e["ph"] == "M"]
        assert any(e["args"]["name"] == "cpu" for e in meta)

    def test_export_json_roundtrip(self, traced, tmp_path):
        executor, recorder = traced
        executor.launch(_kernel())
        path = recorder.export_json(str(tmp_path / "t.json"))
        with open(path) as f:
            loaded = json.load(f)
        assert loaded["traceEvents"]

    def test_empty_span_list_exports_valid_trace(self, tmp_path):
        """No spans still yields a valid, loadable Chrome trace file."""
        from repro.gpusim.tracing import export_chrome_trace

        path = export_chrome_trace([], str(tmp_path / "empty.json"))
        with open(path) as f:
            loaded = json.load(f)
        assert loaded == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_zero_duration_span_exports(self, tmp_path):
        """Zero-duration spans (instant events) are valid and keep dur=0."""
        from repro.gpusim.tracing import Span, chrome_trace, export_chrome_trace

        spans = [Span("cpu", "tick", 0.0, 0.0, "other")]
        trace = chrome_trace(spans)
        event = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert event["dur"] == 0.0
        path = export_chrome_trace(spans, str(tmp_path / "zero.json"))
        with open(path) as f:
            assert json.load(f)["traceEvents"]

    def test_negative_zero_normalised(self):
        """-0.0 start/duration serialise as positive zero, not '-0.0'."""
        from repro.gpusim.tracing import Span, chrome_trace

        span = Span("cpu", "origin", -0.0, -0.0, "other")
        event = next(e for e in chrome_trace([span])["traceEvents"]
                     if e["ph"] == "X")
        assert json.dumps(event["ts"]) == "0.0"
        assert json.dumps(event["dur"]) == "0.0"

    def test_export_is_byte_deterministic(self, traced, tmp_path):
        """Exporting the same span list twice writes identical bytes."""
        executor, recorder = traced
        executor.launch(_kernel("k0"))
        executor.host_work(0.0, Category.OTHER)  # zero-duration span
        executor.synchronize(None)
        path_a = recorder.export_json(str(tmp_path / "a.json"))
        path_b = recorder.export_json(str(tmp_path / "b.json"))
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            bytes_a, bytes_b = fa.read(), fb.read()
        assert bytes_a == bytes_b
        assert bytes_a.endswith(b"\n")

    def test_full_query_produces_rich_trace(self, hw, small_store, rng):
        """A whole Fleche batch yields spans on several tracks."""
        from repro.core.config import FlecheConfig
        from repro.core.workflow import FlecheEmbeddingLayer
        from repro.workloads.trace import TraceBatch
        import numpy as np

        layer = FlecheEmbeddingLayer(small_store, FlecheConfig(cache_ratio=0.2), hw)
        executor = Executor(hw)
        recorder = SpanTracer.attach(executor)
        ids = [rng.integers(0, s.corpus_size, 32).astype(np.uint64)
               for s in small_store.specs]
        layer.query(TraceBatch(ids_per_table=ids, batch_size=32), executor)
        assert len(recorder.tracks()) >= 3  # cpu + main + copy streams
        assert len(recorder.spans) > 10
