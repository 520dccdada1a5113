"""The full Deep & Cross Network used by the evaluation (paper §6.1).

Structure: pooled embedding vectors of all tables are concatenated with the
dense features, fed through six cross layers, then a (1024, 1024) MLP and a
sigmoid output.  :meth:`DeepCrossNetwork.forward` is a real numpy forward
pass; :meth:`kernels` lists the dense-part kernels for the timing model.

The forward pass of a large batch runs on one process-wide worker thread
(:func:`_dense_worker`): sgemm releases the interpreter lock, so the GEMMs
of batch ``i`` overlap the Python cache path of batch ``i + 1`` the way the
simulated GPU overlaps the simulated host thread.  The worker runs the same
numpy calls on the same arrays, one batch at a time and in submission
order, so every probability is bit for bit what an inline pass computes.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..gpusim.kernel import KernelSpec
from .cross import CrossNetwork
from .mlp import MLP


#: Batches below this many rows compute inline.  A forward pass is ~38
#: small numpy calls; under 64 rows each GEMM is so short that handing the
#: interpreter lock back and forth costs more than the overlap buys
#: (``docs/performance.md``, PR 23, has the sweep).
DEFER_MIN_ROWS = 64

#: Forwards submitted to the worker and not yet computed.  Each holds its
#: input (~1 MB at 512 rows) and activations; ``forward`` blocks once this
#: many are outstanding, so a fast simulator thread cannot queue a run's
#: worth of inputs.
MAX_IN_FLIGHT = 3


class _DenseWorker:
    """One thread computing deferred forwards in submission order."""

    def __init__(self):
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="dense-forward"
        )
        self._slots = threading.BoundedSemaphore(MAX_IN_FLIGHT)

    def submit(self, fn, x: np.ndarray) -> Future:
        """Queue ``fn(x)``, first waiting for one of the in-flight slots."""
        self._slots.acquire()
        try:
            future = self._pool.submit(fn, x)
        except BaseException:
            self._slots.release()
            raise
        future.add_done_callback(self._release)
        return future

    def _release(self, _future: Future) -> None:
        self._slots.release()


_WORKER: Optional[_DenseWorker] = None
_WORKER_LOCK = threading.Lock()


def _dense_worker() -> _DenseWorker:
    """The process-wide worker, started on first use (never at import)."""
    global _WORKER
    if _WORKER is None:
        with _WORKER_LOCK:
            if _WORKER is None:
                _WORKER = _DenseWorker()
    return _WORKER


def _forget_worker() -> None:
    global _WORKER
    _WORKER = None


# A forked child inherits the object but not its thread.
os.register_at_fork(after_in_child=_forget_worker)


class DenseForwardResult:
    """Output of the dense part for one batch.

    ``probabilities`` may still be running on the dense worker; the first
    read waits for it (and raises what the worker raised).  ``flops`` is
    known at once.  Built from a finished array by models that compute
    inline.
    """

    __slots__ = ("flops", "_probabilities", "_pending", "_on_ready")

    def __init__(self, probabilities: np.ndarray, flops: float):
        self.flops = flops
        self._probabilities = probabilities
        self._pending: Optional[Future] = None
        self._on_ready = None

    @classmethod
    def deferred(cls, pending: Future, flops: float, on_ready=None):
        """A result whose values ``pending`` will deliver; ``on_ready`` is
        called once with the array, on the thread that first reads it."""
        result = cls(None, flops)
        result._pending = pending
        result._on_ready = on_ready
        return result

    @property
    def probabilities(self) -> np.ndarray:
        pending = self._pending
        if pending is not None:
            self._probabilities = pending.result()
            self._pending = None
            if self._on_ready is not None:
                self._on_ready(self._probabilities)
                self._on_ready = None
        return self._probabilities


class DeepCrossNetwork:
    """DCN: cross layers in front of an MLP tower.

    Args:
        num_tables: embedding tables feeding the concatenation.
        embedding_dim: dimension of each pooled embedding vector.
        dense_dim: number of continuous input features.
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
        #: Forward-pass memo: input (shape, dtype, content digest) ->
        #: probabilities.  The dense weights are fixed at construction
        #: (online refresh streams *embedding* deltas; the dense tower
        #: never mutates), so the forward pass is a pure function of
        #: ``x`` — benches that replay the same request stream through
        #: several server configs reuse each batch's result instead of
        #: re-running the GEMMs.  Holds finished arrays only, written on
        #: the thread that reads a result, so a model deep-copies at any
        #: time.
        self._forward_memo: dict = {}
        self._kernels_memo: dict = {}
        self._zero_dense = None

    def concat_inputs(
        self, pooled_per_table: List[np.ndarray], dense: np.ndarray = None
    ) -> np.ndarray:
        """Concatenate pooled embeddings (and dense features) per sample."""
        if len(pooled_per_table) != self.num_tables:
            raise ConfigError(
                f"expected {self.num_tables} pooled tables, got "
                f"{len(pooled_per_table)}"
            )
        batch = pooled_per_table[0].shape[0]
        parts = list(pooled_per_table)
        if self.dense_dim:
            if dense is None:
                # Cached all-zero block (concatenate only reads it).
                cached = self._zero_dense
                if cached is None or cached.shape[0] != batch:
                    cached = np.zeros(
                        (batch, self.dense_dim), dtype=np.float32
                    )
                    self._zero_dense = cached
                parts.append(cached)
            else:
                parts.append(dense.astype(np.float32))
        return np.concatenate(parts, axis=1)

    def forward(self, x: np.ndarray) -> DenseForwardResult:
        """Run the dense part on concatenated inputs ``x`` (B x input_dim).

        With ``DEFER_MIN_ROWS`` rows or more the cross + MLP computation
        runs on the dense worker and the result's ``probabilities`` joins
        it on first read; ``x`` must not be written before then.
        """
        if x.shape[1] != self.input_dim:
            raise ConfigError(
                f"expected input dim {self.input_dim}, got {x.shape[1]}"
            )
        data = x if x.flags.c_contiguous else np.ascontiguousarray(x)
        key = (
            x.shape,
            str(x.dtype),
            hashlib.sha1(data).digest(),
        )
        flops = self.flops(x.shape[0])
        probabilities = self._forward_memo.get(key)
        if probabilities is not None:
            return DenseForwardResult(probabilities, flops)
        if x.shape[0] < DEFER_MIN_ROWS:
            probabilities = self._dense(x)
            self._remember(key, probabilities)
            return DenseForwardResult(probabilities, flops)
        return DenseForwardResult.deferred(
            _dense_worker().submit(self._dense, x), flops,
            on_ready=partial(self._remember, key),
        )

    def _dense(self, x: np.ndarray) -> np.ndarray:
        """The pure function of ``x``: cross layers, then the MLP tower.
        Runs on the dense worker — it must stay off every entry point a
        tracer wraps (``forward`` above is one)."""
        return self.mlp.forward(self.cross.forward(x))

    def _remember(self, key: tuple, probabilities: np.ndarray) -> None:
        memo = self._forward_memo
        if len(memo) >= 128:
            memo.clear()
        memo[key] = probabilities

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
