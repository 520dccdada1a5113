"""The dense forward in a worker process: same bits, bounded, and loud.

``DeepCrossNetwork.forward`` hands a batch to one child process and
returns a handle that waits on first read, or — when the child already
owes ``MAX_IN_FLIGHT`` forwards — computes it in the caller
(``repro/model/dcn.py``).  These tests hold both placements to an inline
computation bit for bit at every size, and exercise what a second process
adds: the in-flight bound, slots that grow, exceptions and deaths that
must cross the pipe, deep copies, forks, threads, and an interpreter exit
that leaves nothing behind.

The child is stopped with ``SIGSTOP`` where a test needs forwards that are
submitted and not yet computed; every wait in this file has a timeout.
"""

import contextlib
import copy
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import DeepCrossNetwork
from repro.core.config import FlecheConfig
from repro.core.engine import InferenceEngine
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import DenseWorkerError, ReproError
from repro.gpusim.executor import Executor
from repro.model import dcn
from repro.model.cross import CrossNetwork
from repro.model.dcn import MAX_IN_FLIGHT
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

#: Upper bound on every wait in this file: a stuck join fails, not hangs.
TIMEOUT = 30.0

SRC = str(Path(dcn.__file__).resolve().parents[2])


def small_model(**kwargs):
    return DeepCrossNetwork(
        num_tables=4, embedding_dim=16, hidden_units=(64, 32), **kwargs
    )


def broken_model():
    """A model whose second MLP layer cannot take the first one's output:
    the forward raises ``ValueError`` wherever it runs."""
    model = small_model()
    model.mlp.weights[1] = np.zeros((3, 3), dtype=np.float32)
    return model


def inputs(model, rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, model.input_dim)).astype(np.float32)


def inline(model, x):
    """The reference: the same two public calls, in this process."""
    return model.mlp.forward(model.cross.forward(x))


def started_worker():
    """The running worker, owing nothing, with the slots and the tower of
    a small model in place (so a test that stops the child sends it
    nothing large)."""
    model = small_model()
    for seed in range(MAX_IN_FLIGHT):
        model.forward(inputs(model, 2, seed)).probabilities
    worker = dcn._dense_worker()
    for pending, _ in list(worker._in_flight.values()):
        worker.wait_for(pending)  # forwards an earlier test left unread
    return worker, model


@contextlib.contextmanager
def child_stopped(worker):
    """Hold the child with SIGSTOP: forwards queue up un-computed."""
    os.kill(worker.pid, signal.SIGSTOP)
    try:
        yield
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(worker.pid, signal.SIGCONT)


def fill_slots(model):
    """Forwards of ``model`` until the child owes ``MAX_IN_FLIGHT``; with
    the child stopped, the next forward is computed by the caller."""
    return [
        model.forward(inputs(model, 3, seed=100 + i))
        for i in range(MAX_IN_FLIGHT)
    ]


def in_caller(result) -> bool:
    """Whether ``forward`` computed ``result`` in this process: one queued
    for the child is unfinished until a later call takes its answer."""
    return result._pending.done()


def forward_in(placement, model, x):
    """``model.forward(x)``, computed by the ``"child"`` or the
    ``"caller"`` (behind three forwards the stopped child owes)."""
    if placement == "child":
        result = model.forward(x)
    else:
        worker, filler = started_worker()
        with child_stopped(worker):
            queued = fill_slots(filler)
            result = model.forward(x)
        for owed in queued:
            owed.probabilities
    assert in_caller(result) == (placement == "caller")
    return result


def count_calls(monkeypatch, name):
    """Count calls of ``_DenseWorker.<name>`` (every forward goes through
    ``submit``; weights through ``_send_tower``)."""
    calls = []
    original = getattr(dcn._DenseWorker, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(dcn._DenseWorker, name, counted)
    return calls


class _BitEqualityCases:
    """The bit-equality cases, parametrised by where the forward runs:
    each subclass sets ``placement`` (a class, not a parametrize mark, so
    the child's cases keep their test ids)."""

    placement = "child"

    def forward(self, model, x):
        return forward_in(self.placement, model, x)

    @pytest.mark.parametrize("rows", [1, 25, 63, 64, 65, 511, 512])
    def test_equal_to_inline_on_both_sides_of_the_cut_off(self, rows):
        """The thread this process replaced took 64 rows or more; both
        placements take every size."""
        model = small_model()
        x = inputs(model, rows)
        result = self.forward(model, x)
        np.testing.assert_array_equal(result.probabilities, inline(model, x))
        assert result.flops == model.flops(rows)

    @pytest.mark.parametrize("rows", [32, 256])
    def test_non_contiguous_input(self, rows):
        model = small_model()
        x = inputs(model, 2 * rows)[::2]
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(
            self.forward(model, x).probabilities, inline(model, x)
        )

    def test_float64_input(self):
        model = small_model()
        x = inputs(model, 40).astype(np.float64)
        values = self.forward(model, x).probabilities
        np.testing.assert_array_equal(values, inline(model, x))
        assert values.dtype == inline(model, x).dtype

    def test_paper_sized_tower(self):
        model = DeepCrossNetwork(num_tables=8, embedding_dim=64)
        x = inputs(model, 512)
        np.testing.assert_array_equal(
            self.forward(model, x).probabilities, inline(model, x)
        )


class TestSameBitsInTheCaller(_BitEqualityCases):
    placement = "caller"


class TestSameBits(_BitEqualityCases):
    def test_input_is_copied_at_the_call(self):
        worker, model = started_worker()
        x = inputs(model, 30)
        expected = inline(model, x)
        with child_stopped(worker):
            result = model.forward(x)
            x[...] = 0.0
        np.testing.assert_array_equal(result.probabilities, expected)

    def test_two_models_interleave(self):
        a, b = small_model(seed=5), small_model(seed=7)
        xs = [inputs(a, 20 + i, seed=i) for i in range(8)]
        results = [(a, b)[i % 2].forward(x) for i, x in enumerate(xs)]
        for i, (x, result) in enumerate(zip(xs, results)):
            np.testing.assert_array_equal(
                result.probabilities, inline((a, b)[i % 2], x)
            )

    def test_more_models_than_the_child_keeps(self, monkeypatch):
        models = [small_model(seed=s) for s in range(dcn.MAX_TOWERS + 2)]
        sent = count_calls(monkeypatch, "_send_tower")
        x = inputs(models[0], 16)
        for _ in range(2):  # the second round re-sends the dropped ones
            for seed, model in enumerate(models):
                np.testing.assert_array_equal(
                    model.forward(inputs(model, 16, seed)).probabilities,
                    inline(model, inputs(model, 16, seed)),
                )
        assert len(sent) == 2 * len(models)
        assert len(dcn._dense_worker()._towers) == dcn.MAX_TOWERS
        np.testing.assert_array_equal(
            models[0].forward(x).probabilities, inline(models[0], x)
        )

    def test_a_repeated_input_is_computed_again(self, monkeypatch):
        """No forward memo: the same input is submitted again and
        comes back as a new array with the same bits."""
        model = small_model()
        x = inputs(model, 128)
        values = model.forward(x).probabilities
        submitted = count_calls(monkeypatch, "submit")
        again = model.forward(x).probabilities
        assert len(submitted) == 1
        assert again is not values
        np.testing.assert_array_equal(again, values)


class TestInFlightBound:
    def test_the_fourth_forward_is_computed_by_the_caller(self, monkeypatch):
        worker, model = started_worker()
        # A forward that waited for the stopped child would fail fast.
        monkeypatch.setattr(dcn, "ANSWER_TIMEOUT", 5.0)
        xs = [inputs(model, 64, seed=i) for i in range(MAX_IN_FLIGHT + 1)]
        with child_stopped(worker):
            # The bound's worth of forwards return at once, values pending.
            queued = [model.forward(x) for x in xs[:MAX_IN_FLIGHT]]
            # The next one does not wait: it comes back finished, readable
            # while the child cannot compute anything.
            extra = model.forward(xs[-1])
            assert in_caller(extra)
            np.testing.assert_array_equal(
                extra.probabilities, inline(model, xs[-1])
            )
            owed = [pending for pending, _ in worker._in_flight.values()]
            assert owed == [result._pending for result in queued]
        for x, result in zip(xs, queued):
            np.testing.assert_array_equal(
                result.probabilities, inline(model, x)
            )

    def test_a_slot_grows_with_forwards_in_flight(self):
        worker, model = started_worker()
        before = [segment.size for segment in worker._slots]
        small = [inputs(model, 8, seed=i) for i in range(MAX_IN_FLIGHT - 1)]
        large = inputs(model, 1 + max(before) // (4 * model.input_dim))
        assert large.nbytes > max(before)
        with child_stopped(worker):
            results = [model.forward(x) for x in small + [large]]
        for x, result in zip(small + [large], results):
            np.testing.assert_array_equal(
                result.probabilities, inline(model, x)
            )
        assert max(s.size for s in worker._slots) >= large.nbytes
        assert worker is dcn._dense_worker()

    def test_many_callers_under_a_short_switch_interval(self):
        model = small_model()
        xs = [inputs(model, 20 + i, seed=i) for i in range(24)]
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


def gate_cross(model, gate, entered):
    """Make ``model``'s cross layers wait for ``gate`` before computing
    (in this process only: the function cannot be sent to the child)."""
    compute = model.cross.forward

    def forward(x):
        entered.set()
        if not gate.wait(TIMEOUT):
            raise TimeoutError("the gate never opened")
        return compute(x)

    model.cross.forward = forward


class TestCallerRuns:
    def test_an_answer_already_sent_frees_its_slot_first(self):
        worker, model = started_worker()
        xs = [inputs(model, 16, seed=i) for i in range(MAX_IN_FLIGHT + 1)]
        with child_stopped(worker):
            queued = [model.forward(x) for x in xs[:MAX_IN_FLIGHT]]
        assert worker._conn.poll(TIMEOUT), "the child sent no answer"
        # Nobody has read that answer, yet the next forward finds its
        # slot free and goes to the child.
        last = model.forward(xs[-1])
        assert not in_caller(last)
        for x, result in zip(xs, queued + [last]):
            np.testing.assert_array_equal(
                result.probabilities, inline(model, x)
            )

    def test_an_exception_is_raised_on_every_read_and_not_memoised(self):
        model = broken_model()
        result = forward_in("caller", model, inputs(model, 20))
        for _ in range(2):
            with pytest.raises(ValueError, match="matmul"):
                result.probabilities

    def test_a_killed_child_raises_and_the_caller_computes_nothing(
        self, monkeypatch
    ):
        worker, model = started_worker()
        computed = []
        original = CrossNetwork.forward

        def counted(self, x):
            computed.append(len(x))
            return original(self, x)

        with child_stopped(worker):
            queued = fill_slots(model)
            os.kill(worker.pid, signal.SIGKILL)
            assert worker._conn.poll(TIMEOUT), "the pipe stayed open"
            monkeypatch.setattr(CrossNetwork, "forward", counted)
            with pytest.raises(DenseWorkerError, match="dense worker"):
                model.forward(inputs(model, 8, seed=9))
        assert computed == []
        for result in queued:
            with pytest.raises(DenseWorkerError, match="dense worker"):
                result.probabilities
        assert dcn._dense_worker() is not worker

    def test_the_caller_computes_without_the_lock(self):
        """A caller-side forward held inside its cross layers does not
        keep another thread's forward from reaching the child."""
        worker, filler = started_worker()
        gate, entered = threading.Event(), threading.Event()
        gated = small_model(seed=11)
        x = inputs(gated, 40)
        expected = inline(gated, x)
        gate_cross(gated, gate, entered)
        y = inputs(filler, 30, seed=5)
        got = {}
        held = threading.Thread(
            target=lambda: got.update(held=gated.forward(x)), daemon=True
        )
        other = threading.Thread(
            target=lambda: got.update(other=filler.forward(y)), daemon=True
        )
        try:
            with child_stopped(worker):
                queued = fill_slots(filler)
                held.start()
                assert entered.wait(TIMEOUT), "the caller never computed"
            assert worker._conn.poll(TIMEOUT), "the child sent no answer"
            other.start()
            other.join(TIMEOUT)
            assert not other.is_alive(), "the caller's forward held the lock"
            assert not in_caller(got["other"])
            np.testing.assert_array_equal(
                got["other"].probabilities, inline(filler, y)
            )
        finally:
            gate.set()
        held.join(TIMEOUT)
        assert not held.is_alive()
        assert in_caller(got["held"])
        np.testing.assert_array_equal(got["held"].probabilities, expected)
        for result in queued:
            result.probabilities

    def test_the_child_computes_with_the_callers_blas_threads(self):
        """numpy reads the BLAS thread count once, at import; a program
        that changes the variable afterwards must not leave its child on
        another count (the paper tower's bits depend on it)."""
        code = (
            "import os\n"
            "import numpy as np\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '1'  # the child's env\n"
            "from repro import DeepCrossNetwork\n"
            "from repro.model import dcn\n"
            "model = DeepCrossNetwork(num_tables=8, embedding_dim=64)\n"
            "x = np.random.default_rng(0).standard_normal(\n"
            "    (64, model.input_dim)).astype(np.float32)\n"
            "child = model.forward(x).probabilities\n"
            "here = dcn._run_tower((model.cross, model.mlp), x)\n"
            "print(dcn._blas_threads(), int((child != here).sum()))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=TIMEOUT,
            env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2"),
        )
        assert (done.returncode, done.stderr) == (0, "")
        threads, differing = done.stdout.split()
        if threads != "2":
            pytest.skip(f"numpy's BLAS runs {threads} threads here, not 2")
        assert differing == "0"


class TestWorkerFailure:
    def test_exception_surfaces_where_the_value_is_read(self):
        model = broken_model()
        with pytest.raises(ValueError):
            inline(model, inputs(model, 20))
        result = model.forward(inputs(model, 20))
        for _ in range(2):  # every read, not only the first
            with pytest.raises(ValueError, match="matmul"):
                result.probabilities
        # The child is the same one, and still answers.
        healthy = small_model()
        x = inputs(healthy, 20, seed=1)
        worker = dcn._dense_worker()
        np.testing.assert_array_equal(
            healthy.forward(x).probabilities, inline(healthy, x)
        )
        assert dcn._dense_worker() is worker

    def test_a_dead_child_raises_where_the_value_is_read(self):
        worker, model = started_worker()
        with child_stopped(worker):
            results = [model.forward(inputs(model, 8, s)) for s in range(2)]
            os.kill(worker.pid, signal.SIGKILL)
        for result in results:
            for _ in range(2):
                with pytest.raises(DenseWorkerError, match="dense worker"):
                    result.probabilities
        assert issubclass(DenseWorkerError, ReproError)
        # No inline fallback, and no corpse: the next forward starts a
        # new child.
        x = inputs(model, 8, seed=9)
        np.testing.assert_array_equal(
            model.forward(x).probabilities, inline(model, x)
        )
        assert dcn._dense_worker() is not worker

    def test_a_silent_child_raises_within_the_timeout(self, monkeypatch):
        worker, model = started_worker()
        monkeypatch.setattr(dcn, "ANSWER_TIMEOUT", 0.3)
        with child_stopped(worker):
            result = model.forward(inputs(model, 8))
            started = time.monotonic()
            with pytest.raises(DenseWorkerError, match="did not answer"):
                result.probabilities
            assert time.monotonic() - started < TIMEOUT
        assert dcn._dense_worker() is not worker

    def test_a_silent_child_ends_serve(self, served, monkeypatch):
        server, requests = served
        worker, _ = started_worker()
        monkeypatch.setattr(dcn, "ANSWER_TIMEOUT", 0.3)
        with child_stopped(worker):
            with pytest.raises(DenseWorkerError, match="dense worker"):
                copy.deepcopy(server).serve(requests)

    def test_a_dead_child_ends_serve(self, served):
        server, requests = served
        worker, _ = started_worker()
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(DenseWorkerError, match="dense worker"):
            copy.deepcopy(server).serve(requests)

    def test_exception_surfaces_at_the_end_of_serve(self, hw):
        server, requests = build_server(hw, broken_model())
        with pytest.raises(ValueError, match="matmul"):
            server.serve(requests)

    def test_exception_in_any_batch_surfaces_from_engine_run(
        self, small_store, small_dataset, small_trace, hw
    ):
        def engine(model):
            layer = FlecheEmbeddingLayer(
                small_store, FlecheConfig(cache_ratio=0.1), hw
            )
            return InferenceEngine(layer, hw, model=model)

        def model():
            return DeepCrossNetwork(
                num_tables=small_dataset.num_tables,
                embedding_dim=small_dataset.dim, hidden_units=(32, 16),
            )

        batches = list(small_trace)[:5]
        result = engine(model()).run(batches, Executor(hw), warmup=1)
        # ``run_batch``'s handle reads to the same values ``run``
        # reports for the last batch.
        _, dense, _, _ = engine(model()).run_batch(batches[-1], Executor(hw))
        last = dense.probabilities
        assert isinstance(last, np.ndarray)
        np.testing.assert_array_equal(result.last_probabilities, last)
        # Only the first measured batch fails; ``run`` reads every handle.
        healthy, broken = model(), model()
        broken.mlp.weights[1] = np.zeros((3, 3), dtype=np.float32)
        towers = [broken]
        healthy_forward = healthy.forward
        healthy.forward = lambda x: (
            towers.pop().forward(x) if towers else healthy_forward(x)
        )
        with pytest.raises(ValueError, match="matmul"):
            engine(healthy).run(batches, Executor(hw), warmup=1)
        assert not towers


class TestFork:
    def test_a_forked_child_starts_its_own_worker(self):
        worker, model = started_worker()
        x = inputs(model, 128)
        expected = inline(model, x)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                values = model.forward(x).probabilities
                own = dcn._dense_worker()
                if own is worker or own.pid == worker.pid:
                    status = 3
                else:
                    status = 0 if np.array_equal(values, expected) else 2
                dcn.stop_dense_worker()
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
        # The parent's worker was not disturbed.
        np.testing.assert_array_equal(
            model.forward(x).probabilities, expected
        )
        assert dcn._dense_worker() is worker

class TestLifetime:
    def test_nothing_is_left_at_interpreter_exit(self, tmp_path):
        script = tmp_path / "serve_and_exit.py"
        script.write_text(
            "import json, os\n"
            "import numpy as np\n"
            "from repro import DeepCrossNetwork\n"
            "from repro.model import dcn\n"
            "if __name__ == '__main__':\n"
            "    before = set(os.listdir('/dev/shm'))\n"
            "    model = DeepCrossNetwork(num_tables=4, embedding_dim=16,\n"
            "                             hidden_units=(64, 32))\n"
            "    x = np.ones((300, model.input_dim), dtype=np.float32)\n"
            "    read = model.forward(x).probabilities\n"
            "    unread = model.forward(2 * x)\n"
            "    print(json.dumps({\n"
            "        'pid': dcn._dense_worker().pid,\n"
            "        'segments': sorted(set(os.listdir('/dev/shm')) - before),\n"
            "        'mean': float(read.mean()),\n"
            "    }))\n"
        )
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=TIMEOUT, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert done.returncode == 0
        assert done.stderr == ""
        report = json.loads(done.stdout)
        assert report["segments"] and 0.0 < report["mean"] < 1.0
        assert not set(report["segments"]) & set(os.listdir("/dev/shm"))
        with pytest.raises(ProcessLookupError):
            os.kill(report["pid"], 0)

    def test_a_script_without_a_main_guard_is_named(self, tmp_path):
        """The spawned child re-imports the main module: without a guard
        it re-runs the script, fails to start a worker of its own and
        exits before answering.  The error says so, with its exit code,
        instead of blaming the pipe."""
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import numpy as np\n"
            "from repro import DeepCrossNetwork\n"
            "from repro.errors import DenseWorkerError\n"
            "model = DeepCrossNetwork(num_tables=2, embedding_dim=8,\n"
            "                         hidden_units=(16, 8))\n"
            "x = np.ones((4, model.input_dim), dtype=np.float32)\n"
            "try:\n"
            "    model.forward(x).probabilities\n"
            "except DenseWorkerError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=TIMEOUT, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert "died (exit code 1," in done.stdout
        assert "before its first answer" in done.stdout
        assert 'if __name__ == "__main__":' in done.stdout

    def test_no_process_until_the_first_forward(self):
        """Importing starts nothing, and neither does a run that serves
        no dense model."""
        code = (
            "import multiprocessing\n"
            "import repro\n"
            "from repro.model import dcn\n"
            "from repro.serving.arrivals import PoissonArrivals\n"
            "from repro.serving.pipeline import PipelinedInferenceServer\n"
            "from repro.workloads.synthetic import uniform_tables_spec\n"
            "hw = repro.default_platform()\n"
            "dataset = uniform_tables_spec(num_tables=2, corpus_size=500,\n"
            "                              alpha=-1.2, dim=8)\n"
            "layer = repro.FlecheEmbeddingLayer(\n"
            "    repro.EmbeddingStore(dataset.table_specs(), hw),\n"
            "    repro.FlecheConfig(cache_ratio=0.1), hw)\n"
            "model = repro.DeepCrossNetwork(num_tables=2, embedding_dim=8)\n"
            "server = PipelinedInferenceServer(dataset, layer, hw)\n"
            "server.serve(PoissonArrivals(dataset, 1e5, seed=1).generate(200))\n"
            "assert dcn._WORKER is None\n"
            "assert multiprocessing.active_children() == []\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=TIMEOUT, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert (done.returncode, done.stderr) == (0, "")


# ---------------------------------------------------------------------------
# Through the serving loop
# ---------------------------------------------------------------------------


def digest(report) -> str:
    sha = hashlib.sha256()
    sha.update(np.asarray(report.latencies, dtype=np.float64).tobytes())
    sha.update(np.asarray(report.probabilities).tobytes())
    sha.update(repr((report.hits, report.misses, report.batch_sizes)).encode())
    return sha.hexdigest()


def build_server(hw, model=None):
    """A depth-2 server over a small dataset, and requests to serve."""
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
        model=model if model is not None else small_model(),
        include_dense=True,
    )
    return server, PoissonArrivals(dataset, 400_000.0, seed=2).generate(1_500)


@pytest.fixture(scope="module")
def served(hw):
    """A warmed depth-2 server whose batches run from a handful of rows
    to the batching limit, and the requests to measure it with."""
    server, requests = build_server(hw)
    server.serve(
        PoissonArrivals(server.dataset, 400_000.0, seed=1).generate(600)
    )
    sizes = copy.deepcopy(server).serve(requests).batch_sizes
    assert min(sizes) < 64 <= max(sizes)
    return server, requests


class TestServing:
    def test_copies_of_a_served_server_serve_the_same_digest(
        self, served, monkeypatch
    ):
        server, requests = served
        first = copy.deepcopy(server)
        report = first.serve(requests)
        assert report.probabilities.shape == (len(requests),)
        # A copy of the warmed server, and a copy of a server that has
        # just served: neither sends the weights again.
        sent = count_calls(monkeypatch, "_send_tower")
        assert digest(copy.deepcopy(server).serve(requests)) == digest(report)
        copy.deepcopy(first).serve(requests)
        assert sent == []

    def test_a_model_copies_while_a_forward_is_pending(self, monkeypatch):
        worker, model = started_worker()
        x = inputs(model, 128)
        sent = count_calls(monkeypatch, "_send_tower")
        with child_stopped(worker):
            pending = model.forward(x)
            clone = copy.deepcopy(model)
            copied = clone.forward(x)
        np.testing.assert_array_equal(
            copied.probabilities, pending.probabilities
        )
        np.testing.assert_array_equal(copied.probabilities, inline(model, x))
        assert sent == []

    def test_a_server_copies_while_a_forward_is_pending(self, served):
        server, requests = served
        expected = digest(copy.deepcopy(server).serve(requests))
        worker, model = started_worker()
        with child_stopped(worker):
            pending = model.forward(inputs(model, 8, seed=3))
            clone = copy.deepcopy(server)
        assert digest(clone.serve(requests)) == expected
        assert pending.probabilities.shape == (8,)

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
