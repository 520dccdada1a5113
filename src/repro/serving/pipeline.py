"""The staged serving loop: inter-batch overlap + miss coalescing.

Fleche's §3.3 decoupling overlaps work *inside* one batch (the copy
kernels run while the CPU queries DRAM).  This module applies the same
idea at batch scale: the engine's staged batch — ``index`` (encode/dedup
+ cache indexing), ``fetch`` (CPU-DRAM miss query + replacement),
``copy`` (restore/assemble) and ``dense`` (MLP) — is scheduled across up
to ``depth`` concurrently in-flight batches, so batch ``i+1``'s
cache-index and DRAM-miss stages overlap batch ``i``'s copy and MLP
stages, the way production parameter-server stacks pipeline hierarchical
fetches against compute (HugeCTR HPS, arXiv:2210.08804).

Two physical resources stay strictly serial across batches and bound the
overlap (modelled as :class:`~repro.gpusim.executor.SharedResource`
timelines):

* the **single host thread** that drives encoding, deduplication, hash
  probing, and the DRAM query — occupied for the full ``index`` and
  ``fetch`` stages;
* the **single PCIe link** — co-held through the ``fetch`` stage, whose
  miss payloads stream over the wire;
* the **GPU** — held by the ``copy`` and ``dense`` stages (their few
  sub-microsecond kernel-launch slices are assumed to interleave freely:
  the loop is event-driven, never blocking the host thread on a stream
  synchronize).

Cross-batch **in-flight miss coalescing** rides on the overlap window:
when consecutive in-flight batches miss the same flat key, only the first
(leading) batch issues the DRAM/remote fetch and inserts into the cache;
followers take the vectors from the :class:`InFlightMissTable` — the
thundering-herd suppression for hot new keys.  Entries retire when their
owning batch leaves the pipeline.

:func:`serve_staged` is the only serving loop — the body of
:meth:`InferenceServer.serve`.  At ``depth=1`` (``InferenceServer``'s
default) it runs one batch at a time, stages back-to-back, and builds no
in-flight table; :class:`PipelinedInferenceServer` is the same server
with the depth defaulting to 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.cache_base import (
    STAGE_COPY,
    STAGE_DENSE,
    STAGE_FETCH,
    STAGE_INDEX,
)
from ..errors import WorkloadError
from ..gpusim.executor import Executor, SharedResource
from ..obs.registry import Observable
from .arrivals import Request, request_columns
from .batcher import batch_bounds
from .server import InferenceServer, ServingReport

#: Which serial resources each stage occupies for its whole duration.
STAGE_RESOURCES: Dict[str, tuple] = {
    STAGE_INDEX: ("host",),
    STAGE_FETCH: ("host", "pcie"),
    STAGE_COPY: ("gpu",),
    STAGE_DENSE: ("gpu",),
}

#: Resource set charged to stages a scheme invents beyond the canonical
#: four: host-driven by assumption (the conservative choice).
_DEFAULT_RESOURCES = ("host",)


# --------------------------------------------------------------------------
# In-flight miss coalescing
# --------------------------------------------------------------------------


@dataclass
class CoalescingStats:
    """Counters of the in-flight miss table."""

    #: Keys published by leading batches (fetched once, shareable).
    published_keys: int = 0
    #: Keys follower batches took from the table instead of re-fetching.
    coalesced_keys: int = 0
    #: Entries dropped when their owning batch left the pipeline.
    retired_keys: int = 0


class _Segment:
    """One publish call's keys, sorted, with sort-ordered vector rows."""

    __slots__ = ("owner", "keys", "rows", "degraded")

    def __init__(self, owner, keys, rows, degraded):
        self.owner = owner
        self.keys = keys
        self.rows = rows
        self.degraded = degraded


class InFlightMissTable(Observable):
    """Pending-fetch table shared by concurrently in-flight batches.

    The leading batch publishes ``flat key -> vector`` right after its
    DRAM/remote fetch returns; the entry lives until every batch that
    could have indexed before the leader's replacement kernels ran — any
    batch concurrently in flight with the leader — has completed.  (Later
    batches index after the insertion and simply hit the cache.)  A
    follower whose indexing ran before the leader's insertion — and
    therefore missed — matches the table in its fetch stage and shares
    the result: the fetch is issued exactly once, and so is the cache
    insertion.

    Hot path (vectorization contract: no per-key Python in steady
    state).  Entries live in per-publish *segments* — a sorted uint64
    key array plus the matching vector rows — so :meth:`match` is one
    ``np.searchsorted`` probe per live segment, :meth:`publish` is one
    argsort, and :meth:`retire` drops whole segments by owner tag.  A
    key is published at most once while in flight (misses are matched
    against the table before the leader fetches), so live segments hold
    disjoint key sets.
    """

    def __init__(self):
        #: Per-publish segments, in publish order (later segments win).
        self._segments: List[_Segment] = []
        self._size = 0
        self._owner = None
        self.stats = CoalescingStats()
        #: When on (a request tracer is attached), :meth:`match` also
        #: accumulates ``leader batch -> matched key count`` so traces
        #: can attribute a follower's coalesce-wait to the batch whose
        #: fetch it joined.  Off by default: zero hot-loop cost.
        self.track_sources = False
        self._match_owners: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._size

    def set_owner(self, tag) -> None:
        """Tag subsequent :meth:`publish` calls with the executing batch."""
        self._owner = tag

    def match(self, flat_keys: np.ndarray, dim: int):  # hot-path: vectorized
        """Split a miss list against the in-flight table.

        Returns ``(mask, rows, degraded)``: which of ``flat_keys`` are
        already in flight, their vectors (``mask.sum() x dim``, in
        ``flat_keys`` order), and how many of those carried a degraded
        vector.
        """
        n = len(flat_keys)
        degraded = 0
        matched = 0
        if self._segments and n:
            keys = np.asarray(flat_keys).astype(np.uint64, copy=False)
            mask = np.zeros(n, dtype=bool)
            taken_from = []
            # Later segments win: walk them newest first, each taking the
            # keys no newer one took.
            for seg in reversed(self._segments):  # lint: allow-loop (per live segment, bounded by pipeline depth)
                # ``searchsorted`` positions are >= 0: only the top clamps.
                pos = np.minimum(
                    seg.keys.searchsorted(keys), seg.keys.size - 1
                )
                hit = seg.keys[pos] == keys
                if matched:
                    hit &= ~mask
                taken = int(np.count_nonzero(hit))
                if not taken:
                    continue
                mask |= hit
                matched += taken
                taken_from.append((seg, hit, pos))
                if seg.degraded:
                    degraded += taken
                if self.track_sources:
                    self._match_owners[seg.owner] = (
                        self._match_owners.get(seg.owner, 0) + taken
                    )
            # Each matched key's row, in ``flat_keys`` order.
            slot = mask.cumsum() - 1
            shared_rows = np.empty((matched, dim), dtype=np.float32)
            for seg, hit, pos in taken_from:  # lint: allow-loop (per matched segment)
                shared_rows[slot[hit]] = seg.rows[pos[hit]]
        else:
            mask = np.zeros(n, dtype=bool)
            shared_rows = np.empty((0, dim), dtype=np.float32)
        self.stats.coalesced_keys += matched
        self.obs.inc("coalescer.coalesced", matched)
        return mask, shared_rows, degraded

    # hot-path: vectorized
    def publish(
        self, flat_keys: np.ndarray, vectors: np.ndarray, degraded: bool = False
    ) -> None:
        """Record a leading batch's freshly fetched keys."""
        count = len(flat_keys)
        if count:
            keys = np.asarray(flat_keys).astype(np.uint64, copy=False)
            order = np.argsort(keys, kind="stable")
            rows = np.ascontiguousarray(
                np.asarray(vectors, dtype=np.float32)[order]
            )
            self._segments.append(
                _Segment(self._owner, keys[order], rows, bool(degraded))
            )
            self._size += count
        self.stats.published_keys += count
        self.obs.inc("coalescer.published", count)

    def drain_match_sources(self) -> Dict[int, int]:
        """Take (and clear) the leader attribution since the last drain.

        The workflow drains once per batch query, after its per-group
        fetch loop, so the returned dict covers exactly that batch's
        coalesced misses.  Always ``{}`` while ``track_sources`` is off.
        """
        if not self._match_owners:
            return {}
        out = self._match_owners
        self._match_owners = {}
        return out

    def retire(self, owner) -> int:  # hot-path: vectorized
        """Drop every entry owned by ``owner`` (its batch completed)."""
        dead = 0
        if self._segments:
            kept = []
            for seg in self._segments:  # lint: allow-loop (per live segment)
                if seg.owner == owner:
                    dead += seg.keys.size
                else:
                    kept.append(seg)
            if dead:
                self._segments = kept
                self._size -= dead
        self.stats.retired_keys += dead
        self.obs.inc("coalescer.retired", dead)
        return dead


# --------------------------------------------------------------------------
# The serving loop
# --------------------------------------------------------------------------


class _InFlightBatch:
    """Book-keeping of one batch moving through the stage pipeline."""

    __slots__ = (
        "index", "formed_at", "size", "stages", "executor", "next_stage",
        "ready_at", "start", "stall", "trace", "last_elapsed",
    )

    def __init__(self, index: int, formed_at: float, size: int, stages,
                 executor, next_stage: str, ready_at: float, trace=None):
        self.index = index
        #: Instant the batch was sealed.
        self.formed_at = formed_at
        self.size = size
        self.stages = stages
        self.executor = executor
        self.next_stage = next_stage
        self.ready_at = ready_at
        #: Dispatch instant (actual start of the first stage).
        self.start: Optional[float] = None
        #: Accumulated time spent waiting on busy shared resources.  Stage
        #: ends are computed as ``start + (stall + executor elapsed)`` so
        #: an uncontended batch's finish is bit-for-bit ``start +
        #: service_time`` (stall stays exactly 0.0).
        self.stall = 0.0
        #: Request-tracing record (None unless a tracer is attached).
        self.trace = trace
        #: Executor elapsed after the previous stage — the trace's
        #: per-stage exec is the delta, telescoping exactly to elapsed.
        self.last_elapsed = 0.0


@dataclass
class PipelineRunInfo:
    """Introspection of the last run (resources + coalescing)."""

    #: per-resource (busy seconds, grants) over the run.
    resource_busy: Dict[str, tuple] = field(default_factory=dict)
    #: ``None`` when the run built no in-flight miss table.
    coalescing: Optional[CoalescingStats] = None
    depth: int = 1


# hot-path: vectorized
def serve_staged(
    server: InferenceServer, requests: Sequence[Request]
) -> ServingReport:
    """Drive ``requests`` through the staged loop of ``server``.

    The body of :meth:`InferenceServer.serve` — the one place batches
    advance through stages, with up to ``server.depth`` of them in flight.
    """
    if not requests:
        raise WorkloadError("no requests to serve")
    depth = server.depth
    columns = request_columns(requests)
    stops, formed_at = batch_bounds(columns.arrivals, server.policy)
    resources = {
        name: SharedResource(name) for name in ("host", "pcie", "gpu")
    }
    # Per stage: the resources it holds, and its tier in the dispatch
    # order (host-driven stages first at equal instants).
    stage_needs = {
        stage: (tuple(resources[r] for r in names), 0 if "host" in names else 1)
        for stage, names in STAGE_RESOURCES.items()
    }
    default_needs = (tuple(resources[r] for r in _DEFAULT_RESOURCES), 0)
    # At depth 1 no two batches are ever in flight together, so a miss
    # table could never match: none is built.
    coalescer = (
        InFlightMissTable() if server.coalesce and depth > 1 else None
    )
    obs = server.obs
    rt = server.reqtracer
    tracer = server.tracer
    store = server.engine.scheme.store
    if coalescer is not None:
        coalescer.bind_observability(obs)
        coalescer.track_sources = rt is not None
    before = server._begin_run(requests)
    collector = server.collector
    if collector is not None:
        collector.begin_run(float(columns.arrivals.min()))

    n = len(stops)
    # Batches partition ``requests`` contiguously in order, so per-batch
    # latency bookkeeping is an array slice, not a Python loop.
    arrival_arr = columns.arrivals
    offsets = np.zeros(n + 1, dtype=np.intp)
    offsets[1:] = stops
    sizes_arr = np.diff(offsets)
    bounds = [0] + stops
    if rt is not None:
        rt.begin_run(columns.request_ids, arrival_arr)
    #: Latest occupied instant across every shared resource; the gap
    #: up to the next dispatch is a provably idle slot the refresher
    #: may fill.  Refresh work is hard-capped at the dispatch instant
    #: (the scheduler is idle-bounded), so serving timing with a
    #: refresher differs from without only through cache *contents*.
    busy_until = 0.0
    finish_times = [0.0] * n
    #: Per-batch dense results.  Their values are read once, after the
    #: loop: nothing on the simulated clock depends on a probability, so
    #: the real GEMMs run in the dense worker process while this one
    #: drives the following batches' cache path.
    dense_results: list = [None] * n
    in_flight: List[_InFlightBatch] = []
    #: Executors of completed batches, reset for the next admitted one:
    #: at most ``depth`` are ever built.
    idle: List[Executor] = []
    next_index = 0
    completed = [False] * n
    frontier = 0  # smallest batch index not yet completed
    unretired: List[int] = []  # owners whose table entries are live

    def admit() -> int:
        """Admit batches while the in-flight window has room."""
        nonlocal next_index
        admitted = 0
        while next_index < n and len(in_flight) < depth:  # lint: allow-loop (per admitted batch)
            i = next_index
            lo, hi = bounds[i], bounds[i + 1]
            # Depth gate: batch i may not dispatch before batch
            # i-depth has fully finished (depth=1: one batch at a time).
            floor = finish_times[i - depth] if i >= depth else 0.0
            if idle:
                executor = idle.pop()
                executor.reset()
            else:
                executor = Executor(server.hw)
            trace_rec = None
            if rt is not None:
                trace_rec = rt.begin_batch(i, lo, hi, formed_at[i])
            stages = server.engine.run_batch_stages(
                server._to_trace_batch(columns, lo, hi), executor,
                coalescer=coalescer, trace=trace_rec,
            )
            first_stage = next(stages)  # announce only; no work yet
            in_flight.append(_InFlightBatch(
                i, formed_at[i], hi - lo, stages, executor, first_stage,
                max(formed_at[i], floor), trace_rec,
            ))
            next_index += 1
            admitted += 1
        return admitted

    admit()
    while in_flight:  # lint: allow-loop (per batch stage)
        # Pick the in-flight batch whose announced stage can start
        # earliest: event-driven dispatch over the shared resource
        # timelines.  At equal instants, host-driven stages execute
        # (in simulation order) before device stages: host code reads
        # cache state at its stage *start*, while a device stage's
        # mutations (the deferred replacement kernels) land at its
        # stage *end* — the reader must observe pre-mutation state.
        # Within a tier, the older batch goes first.
        chosen = None
        chosen_key = None
        chosen_start = 0.0
        for flight in in_flight:  # lint: allow-loop (per in-flight batch, at most depth)
            needs, tier = stage_needs.get(flight.next_stage, default_needs)
            candidate = flight.ready_at
            for resource in needs:  # lint: allow-loop (per resource a stage holds)
                candidate = resource.next_start(candidate)
            key = (candidate, tier, flight.index)
            if chosen is None or key < chosen_key:
                chosen, chosen_key, chosen_start = flight, key, candidate

        if server.refresher is not None and chosen_start > busy_until:
            server.refresher.run_idle(busy_until, chosen_start)
            busy_until = chosen_start

        wait = 0.0
        if chosen.start is None:
            # First stage: the wait for a free host thread is absorbed
            # into the dispatch instant itself, not counted as stall.
            chosen.start = chosen_start
            if chosen.trace is not None:
                chosen.trace.dispatched(chosen_start)
            if tracer is not None and chosen_start > chosen.formed_at:
                tracer.record(
                    f"lane{chosen.index % depth}", f"b{chosen.index}:queue",
                    chosen.formed_at, chosen_start, "queue",
                )
        else:
            wait = chosen_start - chosen.ready_at
            chosen.stall += wait
        # Align fault windows with this batch's dispatch instant.
        store.advance_to(chosen.start)
        if coalescer is not None:
            coalescer.set_owner(chosen.index)
        stage_name = chosen.next_stage
        needs = stage_needs.get(stage_name, default_needs)[0]
        finished = False
        try:
            chosen.next_stage = chosen.stages.send(None)
        except StopIteration as stop:
            query, batch_dense = stop.value
            finished = True
        end = chosen.start + (chosen.stall + chosen.executor.elapsed())
        if chosen.trace is not None:
            elapsed = chosen.executor.elapsed()
            chosen.trace.stage(
                stage_name, wait, elapsed - chosen.last_elapsed
            )
            chosen.last_elapsed = elapsed
        for resource in needs:  # lint: allow-loop (per resource a stage holds)
            resource.occupy(chosen_start, end)
        busy_until = max(busy_until, end)
        chosen.ready_at = end
        if tracer is not None:
            tracer.record(
                f"lane{chosen.index % depth}", f"b{chosen.index}:{stage_name}",
                chosen_start, end, stage_name,
            )

        if finished:
            finish_times[chosen.index] = chosen.ready_at
            if chosen.trace is not None:
                rt.finish_batch(chosen.trace, chosen.ready_at)
            dense_results[chosen.index] = batch_dense
            obs.inc("serving.batches")
            obs.inc("serving.batched_requests", chosen.size)
            # A batch is degraded when one of its own store answers
            # served a stale or default vector.
            if query.degraded_keys > 0:
                obs.inc("serving.degraded_requests", chosen.size)
            if collector is not None:
                # Completion instants are nondecreasing: the dense
                # stage holds the serial GPU resource through each
                # batch's finish, so this batch's counter delta folds
                # into the window containing its completion.
                lo, hi = offsets[chosen.index], offsets[chosen.index + 1]
                collector.observe_batch(
                    chosen.ready_at,
                    (chosen.ready_at - arrival_arr[lo:hi]).tolist(),
                    first_request=int(lo),
                )
            if server.autotuner is not None:
                server.autotuner.on_batch_complete(chosen.ready_at)
            completed[chosen.index] = True
            while frontier < n and completed[frontier]:  # lint: allow-loop (per completed batch)
                frontier += 1
            if coalescer is not None:
                # Owner i's entries may still be matched by any batch
                # that indexed before i's replacement kernels ran —
                # only batches in flight concurrently with i, i.e.
                # j < i + depth.  Retire once all of those completed.
                unretired.append(chosen.index)
                still = []
                for owner in unretired:  # lint: allow-loop (per in-flight owner, at most depth)
                    if owner + depth <= frontier:
                        coalescer.retire(owner)
                    else:
                        still.append(owner)
                unretired = still
            in_flight.remove(chosen)
            idle.append(chosen.executor)
            admit()

    # End of run: no batch is in flight any more, so every remaining
    # in-flight-table entry is retireable — drain them so the table is
    # provably empty (``coalescer.retired == coalescer.published``).
    if coalescer is not None:
        for owner in unretired:  # lint: allow-loop (per in-flight owner, at most depth)
            coalescer.retire(owner)
        unretired = []
    if server.refresher is not None:
        # Close the books: staleness gauges reflect the run's end even
        # when the pipeline never left an idle slot.
        server.refresher.subscriber.refresh_gauges(max(finish_times))
    if collector is not None:
        collector.flush(max(finish_times))

    # Flatten per-request latencies in batch (= request) order: repeat
    # each batch's finish over its contiguous request slice and subtract
    # arrivals.
    finish_arr = np.asarray(finish_times, dtype=np.float64)
    latencies = np.repeat(finish_arr, sizes_arr) - arrival_arr
    if rt is not None and rt.finalize_on_serve:
        rt.finalize(obs)

    report = server._finalize_report(
        latencies, arrival_arr, sizes_arr.tolist(), max(finish_times), before,
    )
    dense = [d.probabilities for d in dense_results if d is not None]
    if dense:
        report.probabilities = np.concatenate(dense)
    server.last_run = PipelineRunInfo(
        resource_busy={
            name: (res.busy_time, res.grants)
            for name, res in resources.items()
        },
        coalescing=coalescer.stats if coalescer is not None else None,
        depth=depth,
    )
    return report


class PipelinedInferenceServer(InferenceServer):
    """:class:`InferenceServer` with the pipeline depth defaulting to 2."""

    def __init__(self, *args, depth: int = 2, **kwargs):
        super().__init__(*args, depth=depth, **kwargs)

    #: Bound on this class too: the ledger benchmark's traced pass wraps
    #: the ``serve`` it finds in this class's own ``__dict__``.
    serve = InferenceServer.serve
