"""The full Deep & Cross Network used by the evaluation (paper §6.1).

Structure: pooled embedding vectors of all tables are concatenated with the
dense features, fed through six cross layers, then a (1024, 1024) MLP and a
sigmoid output.  :meth:`DeepCrossNetwork.forward` is a real numpy forward
pass; :meth:`kernels` lists the dense-part kernels for the timing model.

The forward pass of a batch runs in one process-wide worker *process*
(:class:`_DenseWorker`): the GEMMs of batch ``i`` overlap the Python cache
path of batch ``i + 1`` the way the simulated GPU overlaps the simulated
host thread, and a process has no interpreter lock to share with it.  The
child holds a copy of each model's cross + MLP towers and runs the same
``mlp.forward(cross.forward(x))`` on the same values, one batch at a time
and in submission order, so every probability is bit for bit what an
inline pass computes.

The child owes at most ``MAX_IN_FLIGHT`` forwards.  A ``forward`` that
finds all of them still owed — after taking every answer the child has
already sent — does not wait: the calling thread runs the same
``mlp.forward(cross.forward(x))`` itself, outside the worker's lock, so
both processes compute GEMMs while the child is the bottleneck.  The
child computes with the parent's BLAS thread count, which is what keeps
the two placements bit-equal.  The forwards a dead or silent child owes
are never recomputed this way: they raise
:class:`~repro.errors.DenseWorkerError`, as does a ``forward`` that finds
the child dead.

The child is created with the ``spawn`` start method, which re-imports the
parent's main module: a script that serves needs the usual
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError, DenseWorkerError
from ..gpusim.kernel import KernelSpec
from .cross import CrossNetwork
from .mlp import MLP


#: Forwards handed to the worker and not yet computed: the number of
#: shared-memory input slots.  Each holds one input (~1 MB at 512 rows);
#: while all are in use ``forward`` computes in the caller, so a fast
#: simulator thread neither queues a run's worth of inputs nor waits.
MAX_IN_FLIGHT = 3

#: Models whose towers the child holds (~6 MB each at the paper's sizes);
#: the least recently used is dropped, and sent again if it comes back.
MAX_TOWERS = 4

#: Longest wait for the child's next message.  A forward is milliseconds;
#: a child silent for this long is treated as dead, never waited on.
ANSWER_TIMEOUT = 60.0
#: Seconds to wait for a child whose pipe broke to exit, so its exit
#: code can be reported.
_EXIT_WAIT = 1.0

#: Smallest input slot.  Slots grow in powers of two to the largest input
#: seen; untouched pages of a segment cost nothing.
_MIN_SLOT_BYTES = 1 << 16


def _segment(**kwargs):
    """A shared-memory segment: ``create=True, size=n`` makes one,
    ``name=`` attaches to one.  The module is imported on first use, so
    ``import repro`` and a run without a dense model never load it."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(**kwargs)


def _release(segment) -> None:
    segment.close()
    segment.unlink()


def _send(conn, message: tuple) -> None:
    # Not ``conn.send``: its pickler hands over a view of a BytesIO, whose
    # finaliser complains under ``python -X dev``.
    conn.send_bytes(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))


def _blas_threads(threads: Optional[int] = None) -> Optional[int]:
    """The number of threads numpy's OpenBLAS splits a GEMM over in this
    process, after setting it to ``threads`` if given; ``None`` when
    numpy's BLAS is not an OpenBLAS whose controls can be reached.

    The count changes the bits of a GEMM, and the variables that choose
    it (``OPENBLAS_NUM_THREADS`` …) are read once, when numpy loads: a
    program that sets them after importing numpy leaves its own count
    and a spawned child's apart.  So the child takes the parent's count,
    and a caller-computed forward equals a child-computed one.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        library = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
        try:
            get = getattr(library, f"{prefix}openblas_get_num_threads{suffix}")
            put = getattr(library, f"{prefix}openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        if threads is not None:
            put(ctypes.c_int(threads))
        return get()
    return None


class _Pending:
    """One forward's outcome: owed by the dense worker until ``done`` (and
    ``result`` waits for it), or computed by the caller and done at once."""

    __slots__ = ("_worker", "_value", "_error")

    def __init__(self, worker: "_DenseWorker"):
        self._worker = worker
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._value is not None or self._error is not None

    def result(self) -> np.ndarray:
        if not self.done():
            self._worker.wait_for(self)
        if self._error is not None:
            raise self._error
        return self._value


class _DenseWorker:
    """The parent's end of the dense worker process.

    Inputs and results travel through ``MAX_IN_FLIGHT`` shared-memory
    slots, a model's towers through a segment of their own that lives
    until the child has copied them; the pipe carries only small control
    messages, so no send waits for a busy child.  One lock serialises
    every use of the pipe.
    """

    def __init__(self):
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_serve_forwards, args=(child_conn, _blas_threads()),
            name="dense-forward", daemon=True,
        )
        self._process.start()
        child_conn.close()
        self.pid = self._process.pid
        self._lock = threading.Lock()
        self._slots: list = [None] * MAX_IN_FLIGHT
        self._free = list(range(MAX_IN_FLIGHT))
        #: ticket -> (pending, slot) of every forward not yet computed.
        self._in_flight: dict = {}
        self._tickets = itertools.count()
        #: Tower ids the child holds or has been sent, least recent first.
        self._towers: OrderedDict = OrderedDict()
        #: tower id -> segment the child has not yet copied.
        self._transfers: dict = {}
        self._failure: Optional[DenseWorkerError] = None
        #: Whether the child has sent anything yet.
        self._answered = False

    def submit(self, model: "DeepCrossNetwork", x: np.ndarray) -> _Pending:
        """``model``'s forward over C-contiguous ``x``, never waiting.

        Answers the child has already sent are taken first.  If a slot is
        then free, ``x`` is copied into it and the forward queued for the
        child; if all ``MAX_IN_FLIGHT`` are still owed, the calling thread
        computes it, outside the lock, and the result is done at once.  An
        exception from that computation is kept for the reader, as the
        child's would be.
        """
        pending = _Pending(self)
        with self._lock:
            if self._failure is not None:
                raise self._failure
            try:
                while self._conn.poll(0):
                    self._receive()
                if self._free:
                    self._queue(pending, model, x)
                    return pending
            except OSError as exc:  # a broken pipe: the child is gone
                raise self._fail(self._died(exc)) from exc
            except BaseException:
                # A half-made submission cannot be resumed.
                if self._failure is None:
                    self._fail("was stopped: a submission was interrupted")
                raise
        try:
            pending._value = _run_tower((model.cross, model.mlp), x)
        except Exception as exc:
            pending._error = exc
        return pending

    def _queue(self, pending: _Pending, model: "DeepCrossNetwork", x) -> None:
        """Copy ``x`` into a free slot and send the child its forward."""
        tower = model._tower_id
        if tower not in self._towers:
            self._send_tower(tower, model)
        self._towers.move_to_end(tower)
        slot = self._claim(max(x.nbytes, 4 * len(x)))
        segment = self._slots[slot]
        np.ndarray(x.shape, x.dtype, buffer=segment.buf)[...] = x
        ticket = next(self._tickets)
        self._in_flight[ticket] = (pending, slot)
        _send(self._conn, (
            "forward", ticket, tower, slot, segment.name, x.shape, x.dtype.str,
        ))

    def wait_for(self, pending: _Pending) -> None:
        with self._lock:
            while not pending.done():
                self._receive()

    def close(self) -> None:
        """Stop the child and remove every shared-memory segment; forwards
        it still owes raise when read."""
        with self._lock:
            if self._failure is None:
                self._fail("was stopped")

    def _send_tower(self, tower: bytes, model: "DeepCrossNetwork") -> None:
        dropped = None
        if len(self._towers) >= MAX_TOWERS:
            dropped, _ = self._towers.popitem(last=False)
        blob = pickle.dumps((model.cross, model.mlp), pickle.HIGHEST_PROTOCOL)
        segment = _segment(create=True, size=len(blob))
        self._transfers[tower] = segment
        segment.buf[:len(blob)] = blob
        self._towers[tower] = None
        _send(self._conn, ("tower", tower, segment.name, len(blob), dropped))

    def _claim(self, nbytes: int) -> int:
        """Take a free slot (one must be) and grow it to ``nbytes``."""
        slot = self._free.pop()
        segment = self._slots[slot]
        if segment is None or segment.size < nbytes:
            if segment is not None:
                _release(segment)
            size = max(_MIN_SLOT_BYTES, 1 << (nbytes - 1).bit_length())
            self._slots[slot] = _segment(create=True, size=size)
        return slot

    def _receive(self) -> None:
        """Take the child's next message: a computed forward frees its
        slot, a copied tower its transfer segment."""
        try:
            answered = self._conn.poll(ANSWER_TIMEOUT)
            message = (
                pickle.loads(self._conn.recv_bytes()) if answered else None
            )
        except (EOFError, OSError) as exc:
            raise self._fail(self._died(exc)) from exc
        if message is None:
            raise self._fail(f"did not answer within {ANSWER_TIMEOUT:g} s")
        self._answered = True
        kind, name, payload = message
        if kind == "loaded":
            _release(self._transfers.pop(name))
            return
        pending, slot = self._in_flight.pop(name)
        if kind == "done":
            shape, dtype = payload
            pending._value = np.ndarray(
                shape, dtype, buffer=self._slots[slot].buf
            ).copy()
        else:
            pending._error = payload
        self._free.append(slot)

    def _died(self, exc: BaseException) -> str:
        """How the child ended, once its pipe broke: its exit code and,
        when it never answered, the likely cause."""
        self._process.join(_EXIT_WAIT)
        what = f"died (exit code {self._process.exitcode}, {exc!r})"
        if not self._answered:
            what += (
                " before its first answer: the spawn start method re-imports"
                " the main module in the child, so a script that serves"
                " needs an `if __name__ == \"__main__\":` guard"
            )
        return what

    def _fail(self, what: str) -> DenseWorkerError:
        """Give up on the child: every forward it owes raises the returned
        error when read, and the next ``forward`` starts a new child."""
        error = self._failure = DenseWorkerError(
            f"the dense worker process (pid {self.pid}) {what}"
        )
        _forget_worker(self)
        for pending, _ in self._in_flight.values():
            pending._error = error
        self._in_flight.clear()
        self._process.kill()
        self._process.join()
        self._process.close()
        self._conn.close()
        for segment in [*self._slots, *self._transfers.values()]:
            if segment is not None:
                _release(segment)
        return error


def _serve_forwards(conn, blas_threads: Optional[int]) -> None:
    """Main of the dense worker process: compute with the parent's BLAS
    thread count, load towers and compute forwards in the order the parent
    sent them, until the parent is gone."""
    # Ctrl-C reaches the whole process group; the parent decides.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if blas_threads is not None:
        _blas_threads(blas_threads)
    towers: dict = {}
    slots: dict = {}
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if message[0] == "tower":
            _, tower, name, nbytes, dropped = message
            towers.pop(dropped, None)
            segment = _segment(name=name)
            with segment.buf[:nbytes] as blob:
                towers[tower] = pickle.loads(blob)
            segment.close()
            _send(conn, ("loaded", tower, None))
            continue
        _, ticket, tower, slot, name, shape, dtype = message
        segment = slots.get(slot)
        if segment is None or segment.name != name:
            if segment is not None:
                segment.close()
            segment = slots[slot] = _segment(name=name)
        try:
            reply = ("done", ticket, _forward_in_place(
                towers[tower], segment.buf, shape, dtype
            ))
        except Exception as exc:
            # The traceback's frames hold a view of the slot.
            reply = ("failed", ticket, exc.with_traceback(None))
        _send(conn, reply)


def _run_tower(tower, x: np.ndarray) -> np.ndarray:
    """The dense forward itself, wherever it runs: child or caller."""
    cross, mlp = tower
    return mlp.forward(cross.forward(x))


def _forward_in_place(tower, buffer, shape, dtype) -> tuple:
    """Run ``tower`` on the input held in ``buffer`` and leave the
    probabilities there; returns their (shape, dtype)."""
    out = _run_tower(tower, np.ndarray(shape, dtype, buffer=buffer))
    np.ndarray(out.shape, out.dtype, buffer=buffer)[...] = out
    return out.shape, out.dtype.str


_WORKER: Optional[_DenseWorker] = None
_WORKER_LOCK = threading.Lock()


def _dense_worker() -> _DenseWorker:
    """The process-wide worker, started on first use (never at import)."""
    global _WORKER
    worker = _WORKER
    if worker is None:
        with _WORKER_LOCK:
            worker = _WORKER
            if worker is None:
                worker = _WORKER = _DenseWorker()
    return worker


def stop_dense_worker() -> None:
    """Stop the dense worker process, if one runs, and remove its shared
    memory; the next ``forward`` starts a new one.  Runs at interpreter
    exit.  Results not yet computed raise :class:`DenseWorkerError`."""
    worker = _WORKER
    if worker is not None:
        worker.close()


def _forget_worker(worker: Optional[_DenseWorker] = None) -> None:
    global _WORKER
    if worker is None or _WORKER is worker:
        _WORKER = None


atexit.register(stop_dense_worker)
# A forked child inherits the handle, but the process behind it is its
# parent's: it starts its own.
os.register_at_fork(after_in_child=_forget_worker)


class DenseForwardResult:
    """Output of the dense part for one batch.

    ``probabilities`` may still be computing in the dense worker process;
    the first read waits for it, and every read raises what the forward
    raised, or :class:`~repro.errors.DenseWorkerError` if the worker died.
    A forward the caller computed because the worker's slots were full is
    finished when ``forward`` returns and fails the same way: its
    exception is raised on every read, never from ``forward``.  ``flops``
    is known at once.  Built from a finished array by models that compute
    inline.
    """

    __slots__ = ("flops", "_probabilities", "_pending")

    def __init__(self, probabilities: np.ndarray, flops: float):
        self.flops = flops
        self._probabilities = probabilities
        self._pending: Optional[_Pending] = None

    @classmethod
    def deferred(cls, pending: _Pending, flops: float):
        """A result whose values ``pending`` will deliver."""
        result = cls(None, flops)
        result._pending = pending
        return result

    @property
    def probabilities(self) -> np.ndarray:
        pending = self._pending
        if pending is not None:
            self._probabilities = pending.result()
            self._pending = None
        return self._probabilities


class DeepCrossNetwork:
    """DCN: cross layers in front of an MLP tower.

    Args:
        num_tables: embedding tables feeding the concatenation.
        embedding_dim: dimension of each pooled embedding vector.
        dense_dim: number of continuous input features (served as zeros).
        num_cross_layers: cross-layer count (paper default 6).
        hidden_units: MLP tower widths (paper default (1024, 1024)).
    """

    def __init__(
        self,
        num_tables: int,
        embedding_dim: int,
        dense_dim: int = 13,
        num_cross_layers: int = 6,
        hidden_units: Sequence[int] = (1024, 1024),
        seed: int = 3,
    ):
        if num_tables <= 0 or embedding_dim <= 0 or dense_dim < 0:
            raise ConfigError("invalid DCN dimensions")
        self.num_tables = num_tables
        self.embedding_dim = embedding_dim
        self.dense_dim = dense_dim
        self.input_dim = num_tables * embedding_dim + dense_dim
        self.cross = CrossNetwork(self.input_dim, num_cross_layers, seed=seed)
        self.mlp = MLP(self.input_dim, hidden_units, seed=seed + 1)
        #: Name under which the dense worker holds these towers.  A deep
        #: copy keeps it and shares the towers themselves (their weights
        #: are read-only), so the copies a server is restored from send
        #: nothing and hold no weights of their own.
        self._tower_id = os.urandom(16)
        self._kernels_memo: dict = {}
        self._zero_dense = None

    def concat_inputs(self, pooled_per_table: List[np.ndarray]) -> np.ndarray:
        """Concatenate pooled embeddings per sample, then ``dense_dim``
        zero dense features."""
        if len(pooled_per_table) != self.num_tables:
            raise ConfigError(
                f"expected {self.num_tables} pooled tables, got "
                f"{len(pooled_per_table)}"
            )
        batch = pooled_per_table[0].shape[0]
        parts = list(pooled_per_table)
        if self.dense_dim:
            # Cached all-zero block (concatenate only reads it).
            cached = self._zero_dense
            if cached is None or cached.shape[0] != batch:
                cached = np.zeros((batch, self.dense_dim), dtype=np.float32)
                self._zero_dense = cached
            parts.append(cached)
        return np.concatenate(parts, axis=1)

    def forward(self, x: np.ndarray) -> DenseForwardResult:
        """Run the dense part on concatenated inputs ``x`` (B x input_dim).

        The cross + MLP computation runs in the dense worker process on a
        copy of ``x`` taken here, and the result's ``probabilities`` waits
        for it on first read — unless the worker already owes
        ``MAX_IN_FLIGHT`` forwards: then it runs on this thread, before
        ``forward`` returns.
        """
        if x.shape[1] != self.input_dim:
            raise ConfigError(
                f"expected input dim {self.input_dim}, got {x.shape[1]}"
            )
        return DenseForwardResult.deferred(
            _dense_worker().submit(self, np.ascontiguousarray(x)),
            self.flops(x.shape[0]),
        )

    def kernels(self, batch_size: int) -> List[KernelSpec]:
        """Every dense-part kernel launch for one batch.

        Memoized per batch size (specs are frozen; callers only read the
        returned list) so steady-state batches build zero new specs.
        """
        cached = self._kernels_memo.get(batch_size)
        if cached is None:
            cached = self.cross.kernels(batch_size) + self.mlp.kernels(
                batch_size
            )
            self._kernels_memo[batch_size] = cached
        return cached

    def flops(self, batch_size: int) -> float:
        return self.cross.flops(batch_size) + self.mlp.flops(batch_size)
