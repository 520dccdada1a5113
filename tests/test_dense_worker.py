"""The deferred dense forward: same bits, bounded, and safe to copy.

``DeepCrossNetwork.forward`` hands large batches to one worker thread and
returns a handle that joins on first read (``repro/model/dcn.py``).  These
tests hold it to the inline computation bit for bit, on both sides of the
row cut-off, and exercise what a second thread adds: exceptions that cross
it, the in-flight bound, deep copies and tracers that wrap ``forward``.
"""

import copy
import hashlib
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import DeepCrossNetwork
from repro.core.config import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.model.dcn import DEFER_MIN_ROWS, MAX_IN_FLIGHT
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

#: Upper bound on every wait in this file: a stuck join fails, not hangs.
TIMEOUT = 30.0


def small_model(**kwargs):
    return DeepCrossNetwork(
        num_tables=4, embedding_dim=16, hidden_units=(64, 32), **kwargs
    )


def inputs(model, rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, model.input_dim)).astype(np.float32)


def inline(model, x):
    """The reference: the same two public calls, on this thread."""
    return model.mlp.forward(model.cross.forward(x))


def record_threads(model, monkeypatch):
    """Names of the threads the model's MLP tower runs on."""
    seen = []
    tower = model.mlp.forward

    def forward(x):
        seen.append(threading.current_thread().name)
        return tower(x)

    monkeypatch.setattr(model.mlp, "forward", forward)
    return seen


class TestSameBits:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 511, 512])
    def test_equal_to_inline_on_both_sides_of_the_cut_off(
        self, rows, monkeypatch
    ):
        model = small_model()
        x = inputs(model, rows)
        expected = inline(model, x)
        seen = record_threads(model, monkeypatch)
        result = model.forward(x)
        np.testing.assert_array_equal(result.probabilities, expected)
        assert result.flops == model.flops(rows)
        on_worker = seen[0].startswith("dense-forward")
        assert on_worker == (rows >= DEFER_MIN_ROWS)

    @pytest.mark.parametrize("rows", [DEFER_MIN_ROWS // 2, 4 * DEFER_MIN_ROWS])
    def test_non_contiguous_input(self, rows):
        model = small_model()
        x = inputs(model, 2 * rows)[::2]
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(
            model.forward(x).probabilities, inline(model, x)
        )

    def test_paper_sized_tower(self):
        model = DeepCrossNetwork(num_tables=8, embedding_dim=64)
        x = inputs(model, 512)
        np.testing.assert_array_equal(
            model.forward(x).probabilities, inline(model, x)
        )

    def test_memo_holds_arrays_and_is_hit(self, monkeypatch):
        model = small_model()
        x = inputs(model, 2 * DEFER_MIN_ROWS)
        first = model.forward(x)
        assert not model._forward_memo  # filled when the value is read
        values = first.probabilities
        assert all(
            isinstance(v, np.ndarray) for v in model._forward_memo.values()
        )
        seen = record_threads(model, monkeypatch)
        assert model.forward(x).probabilities is values
        assert seen == []


class TestWorkerFailure:
    def test_exception_surfaces_where_the_value_is_read(self, monkeypatch):
        model = small_model()

        def broken(x):
            raise FloatingPointError("tower failed")

        monkeypatch.setattr(model.mlp, "forward", broken)
        result = model.forward(inputs(model, 2 * DEFER_MIN_ROWS))
        for _ in range(2):  # every read, not only the first
            with pytest.raises(FloatingPointError, match="tower failed"):
                result.probabilities
        monkeypatch.undo()
        x = inputs(model, 2 * DEFER_MIN_ROWS, seed=1)
        np.testing.assert_array_equal(
            model.forward(x).probabilities, inline(model, x)
        )

    def test_exception_surfaces_at_the_end_of_serve(
        self, served, monkeypatch
    ):
        server, requests = served
        clone = copy.deepcopy(server)

        def broken(x):
            raise FloatingPointError("tower failed")

        monkeypatch.setattr(clone.engine.model.mlp, "forward", broken)
        with pytest.raises(FloatingPointError, match="tower failed"):
            clone.serve(requests)


class TestInFlightBound:
    def test_forward_blocks_once_the_bound_is_outstanding(self, monkeypatch):
        model = small_model()
        gate = threading.Event()
        tower = model.mlp.forward

        def gated(x):
            assert gate.wait(TIMEOUT)
            return tower(x)

        monkeypatch.setattr(model.mlp, "forward", gated)
        xs = [
            inputs(model, DEFER_MIN_ROWS, seed=i)
            for i in range(MAX_IN_FLIGHT + 1)
        ]
        # The bound's worth of forwards return at once, values pending.
        results = [model.forward(x) for x in xs[:MAX_IN_FLIGHT]]
        extra = []
        caller = threading.Thread(
            target=lambda: extra.append(model.forward(xs[-1])), daemon=True
        )
        try:
            caller.start()
            caller.join(0.3)
            assert caller.is_alive(), "one forward too many was admitted"
        finally:
            gate.set()
        caller.join(TIMEOUT)
        assert not caller.is_alive()
        for x, result in zip(xs, results + extra):
            np.testing.assert_array_equal(
                result.probabilities, inline(model, x)
            )

    def test_many_callers_under_a_short_switch_interval(self):
        model = small_model()
        xs = [inputs(model, DEFER_MIN_ROWS + i, seed=i) for i in range(24)]
        expected = [inline(model, x) for x in xs]
        got = [None] * len(xs)
        failures = []

        def caller(k):
            try:
                for i in range(k, len(xs), 6):
                    got[i] = model.forward(xs[i]).probabilities
            except Exception as exc:  # reported below, on the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(k,), daemon=True)
                for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


class TestFork:
    def test_a_forked_child_starts_its_own_worker(self):
        """A child inherits the worker object but not its thread."""
        model = small_model()
        x = inputs(model, 2 * DEFER_MIN_ROWS)
        expected = model.forward(x).probabilities  # the parent's worker runs
        model._forward_memo.clear()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                values = model.forward(x).probabilities
                status = 0 if np.array_equal(values, expected) else 2
            finally:
                os._exit(status)
        deadline = time.monotonic() + TIMEOUT
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.02)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the child's forward never returned")
        assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------
# Through the serving loop
# ---------------------------------------------------------------------------


def digest(report) -> str:
    sha = hashlib.sha256()
    sha.update(np.asarray(report.latencies, dtype=np.float64).tobytes())
    sha.update(np.asarray(report.probabilities).tobytes())
    sha.update(repr((report.hits, report.misses, report.batch_sizes)).encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def served(hw):
    """A warmed depth-2 server whose batches sit on both sides of the
    cut-off, and the requests to measure it with."""
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
    )
    layer = FlecheEmbeddingLayer(
        EmbeddingStore(dataset.table_specs(), hw),
        FlecheConfig(cache_ratio=0.05), hw,
    )
    server = PipelinedInferenceServer(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=128, max_delay=2e-4),
        model=DeepCrossNetwork(
            num_tables=dataset.num_tables, embedding_dim=dataset.dim,
            hidden_units=(64, 32),
        ),
        include_dense=True,
    )
    server.serve(PoissonArrivals(dataset, 400_000.0, seed=1).generate(600))
    requests = PoissonArrivals(dataset, 400_000.0, seed=2).generate(1_500)
    sizes = copy.deepcopy(server).serve(requests).batch_sizes
    assert min(sizes) < DEFER_MIN_ROWS <= max(sizes)
    return server, requests


class TestServing:
    def test_copies_of_a_served_server_serve_the_same_digest(self, served):
        server, requests = served
        first = copy.deepcopy(server)
        report = first.serve(requests)
        assert report.probabilities.shape == (len(requests),)
        # A copy of the warmed server, and a copy of a server that has
        # just served (its model's memo now holds that run's arrays).
        assert digest(copy.deepcopy(server).serve(requests)) == digest(report)
        again = copy.deepcopy(first)
        assert all(
            isinstance(v, np.ndarray)
            for v in again.engine.model._forward_memo.values()
        )

    def test_a_model_copies_while_a_forward_is_pending(self):
        model = small_model()
        x = inputs(model, 2 * DEFER_MIN_ROWS)
        pending = model.forward(x)
        clone = copy.deepcopy(model)
        np.testing.assert_array_equal(
            clone.forward(x).probabilities, pending.probabilities
        )

    def test_consecutive_serves_agree(self, served):
        server, requests = served
        a, b = copy.deepcopy(server), copy.deepcopy(server)
        first = digest(a.serve(requests))
        assert digest(b.serve(requests)) == first
        # The second run starts from a moved-on cache, identically on both.
        assert digest(a.serve(requests)) == digest(b.serve(requests))

    def test_worker_never_calls_through_a_class_level_wrapper(
        self, served, monkeypatch
    ):
        """The ledger's traced pass (``benchmarks/ledger/spans.py``)
        replaces ``DeepCrossNetwork.forward`` on the class with a timing
        wrapper that keeps a span stack, which is not thread-safe."""
        server, requests = served
        plain = copy.deepcopy(server).serve(requests)
        original = DeepCrossNetwork.__dict__["forward"]
        calls = []

        def traced(self, x):
            calls.append((threading.current_thread().name, len(x)))
            return original(self, x)

        monkeypatch.setattr(DeepCrossNetwork, "forward", traced)
        report = copy.deepcopy(server).serve(requests)
        assert digest(report) == digest(plain)
        assert {name for name, _ in calls} == {"MainThread"}
        assert sorted(rows for _, rows in calls) == sorted(plain.batch_sizes)
