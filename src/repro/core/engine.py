"""End-to-end inference engine: embedding layer + pooling + dense part.

One inference step (paper Figure 1):

1. the embedding cache scheme serves all sparse lookups (simulated timing
   through the executor);
2. pooled embedding vectors and dense features are concatenated;
3. the DCN's cross and MLP kernels run on the GPU (FLOP-roofline timing,
   one launch per layer);
4. the batch's click probabilities come back.

The engine works with *any* :class:`~repro.core.cache_base.EmbeddingCacheScheme`
— Fleche, the per-table baseline, or no cache — which is how every
end-to-end figure of the paper is generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from ..gpusim.executor import LAUNCH, SYNC, Executor
from ..gpusim.stats import Category, TimeBreakdown
from ..hardware import HardwareSpec
from ..model.dcn import DeepCrossNetwork, DenseForwardResult
from ..model.pooling import sum_pool
from ..obs.registry import MetricsRegistry, install_conservation_laws
from ..workloads.trace import TraceBatch
from .cache_base import (
    STAGE_DENSE,
    CacheQueryResult,
    EmbeddingCacheScheme,
    record_query_metrics,
)


@dataclass
class InferenceResult:
    """Outcome of one engine run over a sequence of batches."""

    #: total simulated wall-clock of the measured window (seconds).
    elapsed: float
    #: per-batch simulated latencies (seconds).
    latencies: List[float] = field(default_factory=list)
    #: per-batch embedding-layer latencies (seconds).
    embedding_latencies: List[float] = field(default_factory=list)
    samples: int = 0
    hits: int = 0
    misses: int = 0
    unified_hits: int = 0
    #: cached entries moved across precision tiers over the run
    #: (mixed-precision schemes only; always 0 otherwise).
    promotions: int = 0
    demotions: int = 0
    breakdown: Optional[TimeBreakdown] = None
    #: final batch's click probabilities (for correctness checks).
    last_probabilities: Optional[np.ndarray] = None

    @property
    def throughput(self) -> float:
        """Inferences per second over the measured window."""
        return self.samples / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in seconds (q in [0, 100])."""
        return float(np.percentile(self.latencies, q)) if self.latencies else 0.0

    @property
    def median_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)


class InferenceEngine:
    """Drives a cache scheme plus a dense model over traces."""

    def __init__(
        self,
        scheme: EmbeddingCacheScheme,
        hw: HardwareSpec,
        model: Optional[DeepCrossNetwork] = None,
        ids_per_field: int = 1,
        include_dense: bool = True,
    ):
        self.scheme = scheme
        self.hw = hw
        self.model = model
        self.ids_per_field = ids_per_field
        self.include_dense = include_dense and model is not None
        #: the engine's metrics registry — the single source of truth for
        #: cache/tier/fault counters; the scheme and everything observable
        #: beneath it (flat cache, tiered store, fetch client) is bound to
        #: it, and the standard conservation-law catalogue is installed.
        self.obs = MetricsRegistry()
        install_conservation_laws(self.obs)
        scheme.bind_observability(self.obs)

    # ------------------------------------------------------------------ steps

    def _run_dense(
        self,
        batch: TraceBatch,
        query: CacheQueryResult,
        executor: Executor,
    ) -> DenseForwardResult:
        """Pool, concatenate, and run the dense part (timed per kernel).

        The simulated kernels are charged here; the returned handle's
        probabilities may still be computing in the dense worker process."""
        pooled = [
            sum_pool(output, self.ids_per_field) for output in query.outputs
        ]
        x = self.model.concat_inputs(pooled)
        dense_stream = executor.stream("dense")
        plan = [
            (LAUNCH, spec, dense_stream, Category.MLP)
            for spec in self.model.kernels(batch.batch_size)
        ]
        plan.append((SYNC, dense_stream))
        executor.run(plan)
        return self.model.forward(x)

    def run_batch_stages(
        self,
        batch: TraceBatch,
        executor: Executor,
        coalescer=None,
    ):
        """Staged variant of :meth:`run_batch` for pipelined serving.

        A generator following the stage protocol of
        :func:`~repro.core.cache_base.drain_stages`: it yields the name of
        each stage *before* performing it — the scheme's embedding stages
        first, then ``STAGE_DENSE`` when a dense model is attached — and
        returns ``(query result, dense result or None)``.  The dense
        result is the model's :class:`~repro.model.dcn.DenseForwardResult`:
        nothing on the simulated clock depends on a probability, so the
        caller decides when to read (and thereby wait for) the values.
        Driving the generator to exhaustion with no scheduling in between
        performs exactly the sequential batch.
        """
        query = yield from self.scheme.query_stages(
            batch, executor, coalescer=coalescer
        )
        dense = None
        if self.include_dense:
            yield STAGE_DENSE
            dense = self._run_dense(batch, query, executor)
        record_query_metrics(self.obs, query, batch=batch)
        return query, dense

    def run_batch(self, batch: TraceBatch, executor: Executor) -> tuple:
        """Run one batch; returns ``(query result, dense result or None,
        embedding latency, latency)``.

        The dense result is the model's
        :class:`~repro.model.dcn.DenseForwardResult`, still unread: its
        ``probabilities`` wait for the dense worker.
        """
        t0 = executor.elapsed()
        t_embed: Optional[float] = None
        stages = self.run_batch_stages(batch, executor)
        try:
            stage = next(stages)
            while True:
                if stage == STAGE_DENSE:
                    t_embed = executor.elapsed()
                stage = stages.send(None)
        except StopIteration as stop:
            query, dense = stop.value
        t1 = executor.elapsed()
        if t_embed is None:
            t_embed = t1
        return query, dense, t_embed - t0, t1 - t0

    # ------------------------------------------------------------------ runs

    def run(
        self,
        batches: Iterable[TraceBatch],
        executor: Executor,
        warmup: int = 0,
    ) -> InferenceResult:
        """Replay ``batches``; the first ``warmup`` warm the cache untimed."""
        batches = list(batches)
        for batch in batches[:warmup]:
            self.scheme.query(batch, executor)
        executor.reset()

        result = InferenceResult(elapsed=0.0)
        # Read once, after the loop, as ``serve_staged`` does: the real
        # GEMMs run in the dense worker process while this one drives the
        # cache path of the following batches.
        dense_results = []
        for batch in batches[warmup:]:
            query, dense, embed_latency, latency = self.run_batch(
                batch, executor
            )
            result.latencies.append(latency)
            result.embedding_latencies.append(embed_latency)
            result.samples += batch.batch_size
            result.hits += query.hits
            result.misses += query.misses
            result.unified_hits += query.unified_hits
            result.promotions += query.promoted_keys
            result.demotions += query.demoted_keys
            if dense is not None:
                dense_results.append(dense)
        for dense in dense_results:  # any batch's failure surfaces here
            result.last_probabilities = dense.probabilities
        result.elapsed = executor.drain()
        result.breakdown = executor.stats
        return result
