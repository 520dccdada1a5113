"""Shared interface and result types for embedding cache schemes.

Both the HugeCTR-style per-table baseline and Fleche implement
:class:`EmbeddingCacheScheme`: given one :class:`~repro.workloads.trace.TraceBatch`
and an :class:`~repro.gpusim.Executor`, produce the per-table output
matrices and drive the simulated timeline through the query.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..gpusim.executor import Executor
from ..obs.registry import MetricsRegistry, Observable
from ..tables.store import HostStore
from ..workloads.trace import TraceBatch

#: Canonical stage names of a staged embedding query.  ``STAGE_INDEX``
#: covers encode/dedup plus cache indexing (host-driven), ``STAGE_FETCH``
#: the CPU-DRAM miss fetch (host thread + PCIe link), and ``STAGE_COPY``
#: the copy/restore/assemble tail (device streams).  The inference engine
#: appends its own ``STAGE_DENSE`` for the MLP.
STAGE_INDEX = "index"
STAGE_FETCH = "fetch"
STAGE_COPY = "copy"
STAGE_DENSE = "dense"


def drain_stages(stages):
    """Run a staged-query generator to completion; return its result.

    Stage generators follow the protocol ``yield <stage-name>`` *before*
    performing that stage's work, then ``return result`` — so a driver can
    schedule each stage before it executes.  Draining with no scheduling
    in between reproduces the plain sequential query exactly.
    """
    try:
        while True:
            next(stages)
    except StopIteration as stop:
        return stop.value


@dataclass
class CacheQueryResult:
    """Outcome of one batched embedding-layer query.

    Attributes:
        outputs: per-table output matrices ``O_i`` with shape
            ``len(ID_List_i) x d_i`` (the paper's notation, §2.2).
        hits: cache hits among *deduplicated* keys.
        misses: cache misses among deduplicated keys.
        unified_hits: misses whose DRAM location was resolved by the GPU
            unified index (bypassing host indexing, §3.3).
        unique_keys: deduplicated key count of the batch.
        total_keys: raw key count of the batch.
        coalesced_keys: missed keys served from another in-flight batch's
            pending fetch instead of a fresh DRAM/remote query (pipelined
            serving only; always 0 on the sequential path).
        coalesced_degraded: coalesced keys whose shared fetch had served a
            degraded (stale/default) vector.
        degraded_keys: keys of this batch's own store queries that the
            store answered with a degraded vector (the sum of their
            ``StoreQueryResult.degraded_keys``); coalesced keys are not
            counted.
        promoted_keys: cached entries moved to a hotter (more precise)
            tier during this query's hit pass (mixed-precision schemes
            only; always 0 otherwise).  Entry counts — the step-weighted
            ``precision.promotions``/``precision.demotions`` counters are
            incremented by the cache itself.
        demoted_keys: entries moved to a colder tier, same convention.
        per_table_hits: per-access hit counts by table index (duplicates
            weighted), parallel to the batch's tables; empty when the
            scheme does not break hits down by table.
        per_table_misses: per-access miss counts by table index, same
            convention as ``per_table_hits``.
    """

    outputs: List[np.ndarray]
    hits: int = 0
    misses: int = 0
    unified_hits: int = 0
    unique_keys: int = 0
    total_keys: int = 0
    coalesced_keys: int = 0
    coalesced_degraded: int = 0
    degraded_keys: int = 0
    promoted_keys: int = 0
    demoted_keys: int = 0
    per_table_hits: List[int] = field(default_factory=list)
    per_table_misses: List[int] = field(default_factory=list)
    #: ``leader batch index -> coalesced key count``: which in-flight
    #: batch's pending fetch this batch's coalesced keys joined.  Filled
    #: only when the coalescer's source tracking is on (a request tracer
    #: is attached); empty otherwise — the causal link the critical-path
    #: analyzer uses to attribute ``coalesce_wait`` to the leader.
    coalesce_sources: Dict[int, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Hit rate over deduplicated keys (the paper's cache hit rate)."""
        denominator = self.hits + self.misses
        return self.hits / denominator if denominator else 0.0


#: Registry keys of the scheme-level ``cache.*`` counters, in the order
#: :func:`record_query_metrics` counts them.
_QUERY_KEYS = tuple((name, ()) for name in (
    "cache.queries", "cache.lookups", "cache.hits", "cache.misses",
    "cache.unified_hits", "cache.unique_keys", "cache.coalesced_keys",
    "cache.coalesced_degraded",
))
#: ``num_tables -> (lookups keys, hits keys, misses keys)``: per-table
#: registry keys, built on first use.
_TABLE_KEYS: Dict[int, tuple] = {}


def _table_keys(num_tables: int) -> tuple:
    keys = _TABLE_KEYS.get(num_tables)
    if keys is None:
        keys = _TABLE_KEYS[num_tables] = tuple(
            [(name, (("table", str(t)),)) for t in range(num_tables)]
            for name in (
                "cache.table_lookups", "cache.table_hits", "cache.table_misses"
            )
        )
    return keys


# hot-path: vectorized
def record_query_metrics(
    registry: MetricsRegistry,
    result: CacheQueryResult,
    batch: TraceBatch = None,
) -> None:
    """Fold one query result into the shared registry.

    Called once per batch from the engine's stage generator, so every
    scheme — Fleche, per-table, no-cache — feeds the same ``cache.*``
    counters and the conservation law ``cache.lookups == cache.hits +
    cache.misses`` audits each backend's own accounting.

    When ``batch`` is given, per-table access counts are recorded under
    ``cache.table_lookups{table=t}`` for every scheme, and the optional
    per-table hit/miss split (``per_table_hits``/``per_table_misses``)
    lands under ``cache.table_hits``/``cache.table_misses`` — the raw
    material for the hotspot-drift detector's per-table distributions.
    Zero increments are skipped so quiet tables never pollute reports.
    All of it is one :meth:`~repro.obs.registry.MetricsRegistry.inc_keys`
    call.
    """
    increments = list(zip(_QUERY_KEYS, (
        1, result.total_keys, result.hits, result.misses,
        result.unified_hits, result.unique_keys, result.coalesced_keys,
        result.coalesced_degraded,
    )))
    if batch is not None:
        for keys, counts in zip(  # lint: allow-loop (three columns)
            _table_keys(batch.num_tables),
            (batch.sizes, result.per_table_hits, result.per_table_misses),
        ):
            increments += [(k, n) for k, n in zip(keys, counts) if n]
    registry.inc_keys(increments)


@dataclass
class HitRateAccumulator:
    """Aggregates hit statistics across many batches."""

    hits: int = 0
    misses: int = 0
    unified_hits: int = 0
    per_batch: List[float] = field(default_factory=list)

    def record(self, result: CacheQueryResult) -> None:
        self.hits += result.hits
        self.misses += result.misses
        self.unified_hits += result.unified_hits
        self.per_batch.append(result.hit_rate)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class EmbeddingCacheScheme(Observable, abc.ABC):
    """A GPU-resident embedding cache scheme under test."""

    #: Human-readable scheme name used by the benchmark reports.
    name: str = "abstract"

    store: HostStore  # where the scheme's misses go

    def _register_observability(self, registry) -> None:
        """Rebind the host store, so its counters and audit hooks land in
        the engine's registry."""
        self.store.bind_observability(registry)

    @abc.abstractmethod
    def query(self, batch: TraceBatch, executor: Executor) -> CacheQueryResult:
        """Serve one batch, advancing ``executor``'s simulated timeline."""

    def query_stages(
        self, batch: TraceBatch, executor: Executor, coalescer=None
    ):
        """Staged variant of :meth:`query` for pipelined serving.

        A generator following the :func:`drain_stages` protocol: it yields
        the name of the *next* stage before performing it, so a scheduler
        can interleave stages of concurrent batches, and returns the
        :class:`CacheQueryResult`.  ``coalescer`` (an in-flight miss table
        with ``match``/``publish`` methods, or ``None``) lets overlapping
        batches share DRAM fetches for the same flat key; schemes that do
        not support it simply ignore the argument.

        The default implementation exposes the whole query as one
        host-driven ``STAGE_INDEX`` stage, which is always correct —
        just pipelined at batch granularity only.
        """
        yield STAGE_INDEX
        return self.query(batch, executor)

    @abc.abstractmethod
    def memory_usage(self) -> Dict[str, int]:
        """HBM bytes consumed, keyed by component (pool, index, ...)."""

    def warm(self, batches, executor: Executor) -> None:
        """Replay ``batches`` to warm the cache (timings discarded)."""
        for batch in batches:
            self.query(batch, executor)
        executor.reset()
