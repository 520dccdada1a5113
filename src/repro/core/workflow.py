"""The Fleche embedding-layer query workflow (paper §3.1-§3.3, Figure 8).

One batched query proceeds as:

1. **Re-encode** all feature IDs to flat keys (host, nearly free).
2. **Deduplicate** keys on device (one radix-sort kernel, "Other" time).
3. **Index** the flat cache — with self-identified kernel fusion this is a
   single kernel regardless of table count; without it, one kernel per
   table (the ablation Experiment #8 measures as "+FC").
4. **Decoupled copy**: a separate gather kernel copies hit embeddings to
   the output while the CPU *simultaneously* queries the CPU-DRAM layer
   for the misses (Figure 8b).  With the coupled ablation the copy rides
   inside the indexing kernel and the DRAM query must wait.
5. **Unified index**: misses whose index entry carried a DRAM pointer skip
   the host-side hash probing (Figure 8c).
6. **Replacement**: missing embeddings come back over PCIe, a copying
   kernel writes them into the memory pool, then an indexing kernel
   publishes the new key -> location mappings.
7. **Restore** the full output matrices from the deduplicated rows.

All data movement really happens (numpy); all timing flows through the
:class:`~repro.gpusim.Executor` so maintenance and execution are accounted
the way the paper measures them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..gpusim.executor import COPY, HOST, LAUNCH, SYNC, Executor
from ..gpusim.kernel import KernelSpec, coalesced_bytes
from ..gpusim.stats import Category
from ..hardware import HardwareSpec
from ..tables.store import HostStore, unpack_global_key
from ..workloads.trace import TraceBatch
from .cache_base import (
    STAGE_COPY,
    STAGE_FETCH,
    STAGE_INDEX,
    CacheQueryResult,
    EmbeddingCacheScheme,
    drain_stages,
)
from .config import FlecheConfig
from .dedup import dedup_kernel_spec, deduplicate, restore_kernel_spec
from .flat_cache import FlatCache
from .fusion import fused_kernel_spec, fused_threads, fusion_metadata_bytes
from .unified_index import UnifiedIndexTuner

#: Host cost of re-encoding one table's ID list: a lookup in the dozens-entry
#: mapping table plus one vectorised transform (paper: "ultra-fast and at
#: almost no cost").
_ENCODE_COST_PER_TABLE = 0.2e-6
_ENCODE_COST_PER_KEY = 0.5e-9


#: Threads a warp-cooperative probe dedicates to one key.
_WARP = 32


def _index_kernel_spec(name: str, num_keys: int, hops: float = 1.0) -> KernelSpec:
    """Indexing kernel: one warp probes one key (one 128 B transaction)."""
    return KernelSpec(
        name=name,
        threads=max(num_keys, 1) * _WARP,
        random_transactions=num_keys,
        dependent_hops=hops,
    )


def _copy_kernel_spec(
    name: str,
    rows: int,
    dim: int,
    hw: HardwareSpec,
    read_bytes: Optional[int] = None,
) -> KernelSpec:
    """Decoupled copying kernel: threads scale with embedding dimension.

    Reads are gathers of whole embeddings (coalesced transactions), writes
    are dense; with many threads per embedding the kernel is throughput-
    bound, the improvement §3.3 credits to decoupling.

    ``read_bytes`` is the total *stored* payload behind the gather: a
    mixed-precision cache reads fp16/int8 lines (the dequant is ALU work
    fused into the same pass) while still writing fp32 rows, so its read
    side streams fewer bytes than the write side.
    """
    row_bytes = coalesced_bytes(dim * 4, hw.gpu.transaction_bytes)
    if read_bytes is None:
        read_side = rows * row_bytes
    else:
        per_row = -(-read_bytes // rows) if rows else 0
        read_side = rows * coalesced_bytes(per_row, hw.gpu.transaction_bytes)
    return KernelSpec(
        name=name,
        threads=max(rows, 1) * min(max(dim, _WARP), 256),
        stream_bytes=read_side + rows * row_bytes,
    )


#: Spin-retry rounds warps burn against a held lock while the owner copies
#: its embedding (Figure 7a).  The waste is bounded by the device's
#: concurrency window: only resident warps can spin at any instant.
_LOCK_RETRY_ROUNDS = 5

#: A warp-per-embedding gather moves whole lines one warp at a time; it
#: achieves roughly half the streaming bandwidth of the wide, many-threads-
#: per-embedding gather the decoupled copying kernel uses (§3.3).
_NARROW_GATHER_PENALTY = 2.0


def coupled_query_kernel_spec(
    name: str,
    num_keys: int,
    hit_rows: int,
    output_rows: int,
    dim: int,
    hw: HardwareSpec,
    concurrent_tables: int = 1,
) -> KernelSpec:
    """HugeCTR-style coupled index+copy kernel (Figure 7a).

    One warp locks the entry, then copies the whole embedding while holding
    it: the copy's memory rounds extend the dependent chain, the gather is
    warp-granular (half-rate), and contending warps spin-retry against the
    held lock.  Spin waste is bounded by the device's resident-warp window,
    a *global* resource shared by however many tables' kernels run
    concurrently — callers pass ``concurrent_tables`` so the bound is split
    fairly.
    """
    row_bytes = coalesced_bytes(dim * 4, hw.gpu.transaction_bytes)
    tx_per_embedding = max(1, row_bytes // hw.gpu.transaction_bytes)
    resident_warps = hw.gpu.max_resident_threads // hw.gpu.warp_size
    spin_window = max(1, resident_warps // max(1, concurrent_tables))
    retry_tx = int(
        min(hit_rows, spin_window) * tx_per_embedding * _LOCK_RETRY_ROUNDS
    )
    gather_bytes = int(hit_rows * row_bytes * _NARROW_GATHER_PENALTY)
    out_bytes = row_bytes * output_rows
    return KernelSpec(
        name=name,
        threads=max(num_keys, 1) * _WARP,
        random_transactions=num_keys + retry_tx,
        dependent_hops=1.0 + tx_per_embedding,
        stream_bytes=gather_bytes + out_bytes,
    )


class _DimGroup:
    """Work of one embedding dimension within a batch."""

    __slots__ = ("dim", "positions", "unique_keys", "rep_tables",
                 "rep_features")

    def __init__(self, dim, positions, unique_keys, rep_tables, rep_features):
        self.dim = dim
        #: positions (into the batch's unique-key array) of this group's
        #: keys; ``None`` when the group holds every key.
        self.positions = positions
        self.unique_keys = unique_keys
        self.rep_tables = rep_tables
        self.rep_features = rep_features

    def take(self, column: np.ndarray) -> np.ndarray:
        """``column`` (one entry per unique key) restricted to the group."""
        return column if self.positions is None else column[self.positions]


class FlecheEmbeddingLayer(EmbeddingCacheScheme):
    """Fleche: flat cache + fusion + decoupling + unified index."""

    name = "fleche"

    def __init__(
        self,
        store: HostStore,
        config: FlecheConfig,
        hw: HardwareSpec,
    ):
        self.store = store
        self.config = config
        self.hw = hw
        self.cache = FlatCache(store.specs, config)
        self._dim_of_table = np.array(
            [spec.dim for spec in store.specs], dtype=np.int64
        )
        self.tuner: Optional[UnifiedIndexTuner] = None
        if config.use_unified_index:
            self.tuner = UnifiedIndexTuner(max_capacity=self.cache.unified_capacity)
            # The tuner starts from an empty unified index and grows it.
            self.cache.set_unified_capacity(0)
            # Paper §5: a store that caches a remote tier announces its
            # evictions, so stale unified-index pointers get erased.
            store.register_pointer_invalidator(self._invalidate_stale_pointers)
        #: Kernel-spec memo: steady-state batches repeat a small set of
        #: (table, key count, hit count) shapes, so spec construction
        #: amortises to a dict hit (specs are frozen — safe to share
        #: across batches).
        self._spec_memo: Dict[tuple, KernelSpec] = {}
        self._weighted_dim = (
            int(np.average(self._dim_of_table)) if len(store.specs) else 0
        )
        #: The dataset's single embedding width, or None when tables mix
        #: widths (drives the `_dim_groups` single-group fast path).
        self._uniform_dim = (
            int(self._dim_of_table[0])
            if len(self._dim_of_table)
            and int(self._dim_of_table.min()) == int(self._dim_of_table.max())
            else None
        )

    def _register_observability(self, registry) -> None:
        self.cache.bind_observability(registry)
        super()._register_observability(registry)

    def _remember(self, key: tuple, spec: KernelSpec) -> KernelSpec:
        """Memoize ``spec`` under ``key`` (callers ``memo.get(key) or``
        it, so a hit costs one dict lookup)."""
        if len(self._spec_memo) >= 8192:
            self._spec_memo.clear()
        self._spec_memo[key] = spec
        return spec

    def _invalidate_stale_pointers(self, global_keys: np.ndarray) -> None:
        """Translate DRAM-tier eviction notices into flat-key erasures."""
        global_keys = np.asarray(global_keys, dtype=np.uint64)
        if len(global_keys) == 0:
            return
        tables, features = unpack_global_key(global_keys)
        tables = tables.astype(np.int64)
        self.cache.invalidate_dram_pointers(
            self.cache.codec.encode_many(tables, features)
        )

    # ------------------------------------------------------------------ public

    def memory_usage(self) -> Dict[str, int]:
        return self.cache.memory_usage()

    def query(self, batch: TraceBatch, executor: Executor) -> CacheQueryResult:
        return drain_stages(self.query_stages(batch, executor))

    def query_stages(
        self, batch: TraceBatch, executor: Executor, coalescer=None
    ):
        """Staged query (see :func:`~repro.core.cache_base.drain_stages`).

        Yields ``STAGE_INDEX`` (encode/dedup/index + miss readback),
        ``STAGE_FETCH`` (decoupled hit-copy kernels overlapping the
        CPU-DRAM miss fetch), and ``STAGE_COPY`` (replacement kernels,
        restore, final synchronisation, output assembly); drained
        back-to-back it performs exactly the operations of the sequential
        query, in the same order.
        """
        if batch.num_tables != self.store.num_tables:
            raise ConfigError(
                f"batch covers {batch.num_tables} tables, store has "
                f"{self.store.num_tables}"
            )
        yield STAGE_INDEX
        start = executor.elapsed()
        self.cache.tick()
        result = yield from self._query_stages(batch, executor, coalescer)
        if self.tuner is not None:
            latency = executor.elapsed() - start
            decision = self.tuner.observe(latency)
            if decision.action == "reset":
                self.cache.clear_unified_index()
            self.cache.set_unified_capacity(decision.capacity)
        return result

    # ------------------------------------------------------------------ phases

    def _dim_groups(
        self,
        unique_keys: np.ndarray,
        rep_tables: np.ndarray,
        rep_features: np.ndarray,
    ) -> List[_DimGroup]:
        # Uniform-dim fast path (the common case: one embedding width per
        # dataset): a single group covering every position, no masks.
        if self._uniform_dim is not None and len(unique_keys):
            return [_DimGroup(
                self._uniform_dim, None, unique_keys, rep_tables, rep_features
            )]
        dims = self._dim_of_table[rep_tables]
        groups = []
        for dim in np.unique(dims):
            positions = np.flatnonzero(dims == dim)
            groups.append(_DimGroup(
                int(dim), positions, unique_keys[positions],
                rep_tables[positions], rep_features[positions],
            ))
        return groups

    # ------------------------------------------------------------------ query

    # hot-path: vectorized
    def _query_stages(
        self, batch: TraceBatch, executor: Executor, coalescer=None
    ):
        """Each stage's data work, then its timeline charges as one plan
        (:meth:`~repro.gpusim.executor.Executor.run`): the charges never
        depend on when they are made within a stage, only on its data."""
        config = self.config
        cache = self.cache
        memo = self._spec_memo
        main_stream = executor.stream("main")
        copy_stream = executor.stream("copy")

        tables_flat, features_flat = batch.tables, batch.features
        num_tables = batch.num_tables
        total = len(features_flat)
        # --- Phase 1: host-side re-encoding of all ID lists to flat keys.
        plan = [(
            HOST,
            _ENCODE_COST_PER_TABLE * num_tables + _ENCODE_COST_PER_KEY * total,
            Category.OTHER,
        )]
        flat_keys = cache.codec.encode_many(tables_flat, features_flat)
        # --- Phase 2: ship keys to the device and deduplicate there.
        plan.append((COPY, flat_keys.nbytes, Category.OTHER, main_stream))
        plan.append((
            LAUNCH,
            memo.get(("dedup", total))
            or self._remember(("dedup", total), dedup_kernel_spec(total)),
            main_stream, Category.OTHER,
        ))
        unique_keys, rep_index, inverse = deduplicate(flat_keys)
        num_unique = len(unique_keys)
        rep_tables = tables_flat[rep_index]
        rep_features = features_flat[rep_index]

        # --- Phase 3: indexing.  Per-table work is described once; fusion
        # decides whether it becomes a single launch or one per table, and
        # decoupling decides whether the copy rides inside it (coupled) or
        # in separate gather kernels (phase 4a).
        outcome = cache.index_lookup(unique_keys)
        inserts_at_probe = cache.cached_inserts
        # Frequency estimation rides the indexing pass: one sketch fold of
        # the deduplicated keys (no-op without a frequency estimator).
        cache.observe_keys(unique_keys)
        # Pin the reclamation epoch for the resolve -> gather window: the
        # locations just read from the index must stay readable through
        # phase 4a even if a concurrently pipelined batch's replacement
        # evicts them in between (read-after-delete safety, §3.1).  The
        # sequential path never contends, so this is free there.
        read_epoch = cache.reclaimer.pin()
        table_counts = np.bincount(rep_tables, minlength=num_tables)
        if config.use_fusion:
            plan.append((
                COPY, fusion_metadata_bytes(num_tables), Category.CACHE_INDEX,
                main_stream,
            ))
            plan.append((
                LAUNCH,
                self._fused_index_spec(
                    table_counts, outcome, rep_tables, num_unique, num_tables
                ),
                main_stream, Category.CACHE_INDEX,
            ))
        else:
            for t, spec in enumerate(self._per_table_specs(  # lint: allow-loop (per table, unfused ablation only)
                table_counts, outcome, rep_tables, num_tables
            )):
                stream = executor.stream(f"table{t}")
                plan.append((
                    COPY, 24 + 8 * spec.threads // _WARP,
                    Category.CACHE_INDEX, stream,
                ))
                plan.append((LAUNCH, spec, stream, Category.CACHE_INDEX))

        # CPU needs the miss list: synchronise and read it back.
        plan.append((SYNC, main_stream if config.use_fusion else None))
        miss_mask = outcome.miss
        plan.append((
            COPY, max(1, int(np.count_nonzero(miss_mask))) * 8,
            Category.MAINTENANCE, None,
        ))
        executor.run(plan)

        # Stage boundary: the miss list is on the host; everything past
        # this point is the fetch/replacement phase a pipelined server may
        # overlap with another batch's indexing.
        yield STAGE_FETCH

        plan = []
        groups = self._dim_groups(unique_keys, rep_tables, rep_features)
        unique_vectors: Dict[int, np.ndarray] = {}
        for group in groups:  # lint: allow-loop (per dim group)
            unique_vectors[group.dim] = np.zeros(
                (len(group.unique_keys), group.dim), dtype=np.float32
            )

        # --- Phase 4a: decoupled copy kernel(s) for the hits (async).
        # The spec's read side is the stored payload bytes: on a
        # mixed-precision cache the dequant fuses into this gather and
        # fp16/int8 lines stream fewer bytes.  There a hit also doubles as
        # a retier opportunity: keys whose frequency estimate crossed a
        # tier threshold move to their new tier while their fp32 rows are
        # already in registers.
        quantizing = cache.quantizing
        promoted_keys = 0
        demoted_keys = 0
        for group in groups:  # lint: allow-loop (per dim group)
            dim = group.dim
            hit_here = group.take(outcome.cache_hit)
            locations = group.take(outcome.locations)[hit_here]
            rows = len(locations)
            if config.decouple_copy:
                read_bytes = cache.read_payload_bytes(locations, dim)
                key = ("copy", dim, rows, read_bytes)
                spec = memo.get(key) or self._remember(
                    key, _copy_kernel_spec(
                        f"fc_copy_d{dim}", rows, dim, self.hw,
                        read_bytes=read_bytes,
                    ),
                )
                plan.append((LAUNCH, spec, copy_stream, Category.CACHE_COPY))
            if rows:
                gathered = cache.gather(locations)
                unique_vectors[dim][hit_here] = gathered
                if quantizing:
                    up, down = cache.retier_hits(
                        group.unique_keys[hit_here], locations, gathered, dim
                    )
                    promoted_keys += up
                    demoted_keys += down
        cache.reclaimer.unpin(read_epoch)

        # --- Phase 4b/5: DRAM query for the misses (overlaps with copies
        # when decoupled; with the coupled ablation the sync above already
        # serialised everything).  Keys another in-flight batch has already
        # fetched but not yet published to the index are taken from the
        # coalescer instead of re-querying DRAM/remote (issued-once
        # semantics; the leading batch alone inserts them).
        total_unified = 0
        coalesced_keys = 0
        coalesced_degraded = 0
        degraded_keys = 0
        pending_replacements = []
        for group in groups:  # lint: allow-loop (per dim group)
            dim = group.dim
            miss_here = group.take(miss_mask)
            num_miss = int(np.count_nonzero(miss_here))
            if not num_miss:
                continue
            dram_hit_here = group.take(outcome.dram_hit)[miss_here]
            miss_tables = group.rep_tables[miss_here]
            miss_features = group.rep_features[miss_here]
            miss_keys = group.unique_keys[miss_here]

            num_shared = 0
            if coalescer is not None:
                shared, shared_rows, shared_degraded = coalescer.match(
                    miss_keys, dim
                )
                num_shared = int(np.count_nonzero(shared))
            if not num_shared:
                # No in-flight overlap: this batch leads on every miss.
                store_result = self.store.query_many(
                    miss_tables, miss_features,
                    indexed_mask=(
                        dram_hit_here if config.use_unified_index else None
                    ),
                )
                vectors = lead_vectors = store_result.vectors
                lead_keys, lead_dram = miss_keys, dram_hit_here
                lead_tables, lead_features = miss_tables, miss_features
            else:
                lead = ~shared
                coalesced_keys += num_shared
                coalesced_degraded += int(shared_degraded)
                vectors = np.zeros((num_miss, dim), np.float32)
                vectors[shared] = shared_rows
                store_result = None
                lead_vectors = np.zeros((0, dim), np.float32)
                lead_keys, lead_dram = miss_keys[lead], dram_hit_here[lead]
                lead_tables, lead_features = miss_tables[lead], miss_features[lead]
                if num_shared < num_miss:
                    store_result = self.store.query_many(
                        lead_tables, lead_features,
                        indexed_mask=(
                            lead_dram if config.use_unified_index else None
                        ),
                    )
                    lead_vectors = store_result.vectors
                    vectors[lead] = lead_vectors
            group_degraded = 0
            if store_result is not None:
                group_degraded = store_result.degraded_keys
                degraded_keys += group_degraded
                cost = store_result.cost
                plan.append((HOST, cost.index_time, Category.DRAM_INDEX))
                plan.append((HOST, cost.copy_time, Category.DRAM_COPY))
                plan.append((
                    COPY, store_result.vectors.nbytes, Category.DRAM_COPY,
                    copy_stream,
                ))
            unique_vectors[dim][miss_here] = vectors
            num_lead = num_miss - num_shared
            total_unified += int(np.count_nonzero(lead_dram))
            # Miss-routing accounting: every deduplicated miss either leads
            # its own fetch or coalesces onto an in-flight one (the
            # ``fleche.miss-routing`` conservation law).
            self.obs.inc("cache.unique_misses", num_miss)
            self.obs.inc("cache.lead_keys", num_lead)
            if num_lead:
                if coalescer is not None:
                    coalescer.publish(
                        lead_keys, lead_vectors, degraded=group_degraded > 0
                    )
                # Phase 6 (replacement) is deferred to the copy stage: the
                # paper's replacement copy/indexing kernels run on device
                # streams, so the new key -> location mappings only become
                # visible once that device work executes (§3.3) — not
                # while the CPU is still mid-fetch.  Only the leading keys
                # replace; coalesced followers must not insert a second
                # time.
                pending_replacements.append((
                    dim, lead_keys, lead_vectors, lead_dram,
                    lead_tables, lead_features,
                ))
        executor.run(plan)

        # Stage boundary: misses are fetched; the remaining work —
        # replacement kernels, restore, output assembly — is device-side.
        # A pipelined batch indexing between this batch's fetch and copy
        # stages misses the keys fetched above and takes them from the
        # in-flight table instead of re-querying DRAM.
        yield STAGE_COPY

        # --- Phase 6: replacement (copy kernel, then indexing kernel) for
        # the leading keys only.  Keys a concurrently in-flight batch has
        # published since this batch's index probe are skipped — the
        # insertion happens exactly once per key, never overwriting a live
        # slot.  Only an insert can cache a key the probe missed, so with
        # none since the probe there is nothing to re-probe.  Dim groups
        # hold disjoint keys: this batch's own inserts below cannot cache
        # another group's keys.
        plan = []
        reprobe = cache.cached_inserts != inserts_at_probe
        for (dim, lead_keys, lead_vectors, lead_dram,  # lint: allow-loop (per dim group)
             lead_tables, lead_features) in pending_replacements:
            if reprobe:
                keep = ~cache.contains_cached(lead_keys)
                kept = np.count_nonzero(keep)
                if kept < len(keep):
                    if not kept:
                        continue
                    lead_keys = lead_keys[keep]
                    lead_vectors = lead_vectors[keep]
                    lead_dram = lead_dram[keep]
                    lead_tables = lead_tables[keep]
                    lead_features = lead_features[keep]
            inserted_mask, _ = cache.admit_and_insert(
                lead_keys,
                lead_vectors,
                dim,
                dram_mask=lead_dram,
            )
            inserted = int(np.count_nonzero(inserted_mask))
            key = ("replace_copy", dim, inserted)
            plan.append((
                LAUNCH,
                memo.get(key) or self._remember(key, _copy_kernel_spec(
                    f"fc_replace_copy_d{dim}", inserted, dim, self.hw
                )),
                copy_stream, Category.CACHE_COPY,
            ))
            key = ("replace_index", dim, inserted)
            plan.append((
                LAUNCH,
                memo.get(key) or self._remember(key, _index_kernel_spec(
                    f"fc_replace_index_d{dim}", inserted, hops=2.0
                )),
                main_stream, Category.CACHE_INDEX,
            ))
            # Denied, not-yet-tracked keys may enter the unified index.
            if config.use_unified_index:
                candidates = ~inserted_mask & ~lead_dram
                if np.count_nonzero(candidates):
                    rows = (
                        lead_tables[candidates].astype(np.uint64)
                        << np.uint64(40)
                    ) | lead_features[candidates]
                    cache.publish_dram_pointers(lead_keys[candidates], rows)

        # --- Phase 7: restore the full output matrices from unique rows
        # (both paths — Fleche always deduplicates, §4).
        key = ("restore", total, num_unique)
        plan.append((
            LAUNCH,
            memo.get(key) or self._remember(key, restore_kernel_spec(
                total, self._weighted_dim, unique_rows=num_unique
            )),
            copy_stream, Category.OTHER,
        ))
        plan.append((SYNC, None))
        executor.run(plan)

        outputs = self._assemble_outputs(
            batch, inverse, num_unique, unique_vectors, groups
        )
        # Hit statistics are per *access* (duplicates weighted), matching
        # how the paper's hit rates are measured.
        # Every access is a hit or a miss, so misses are what hits leave.
        hit_access = outcome.cache_hit[inverse]
        hits = int(np.count_nonzero(hit_access))
        per_table_hits = np.bincount(
            tables_flat[hit_access], minlength=num_tables
        ).tolist()
        return CacheQueryResult(
            outputs=outputs,
            hits=hits,
            misses=total - hits,
            unified_hits=total_unified,
            unique_keys=num_unique,
            total_keys=total,
            coalesced_keys=coalesced_keys,
            coalesced_degraded=coalesced_degraded,
            degraded_keys=degraded_keys,
            promoted_keys=promoted_keys,
            demoted_keys=demoted_keys,
            per_table_hits=per_table_hits,
            per_table_misses=[
                n - h for n, h in zip(batch.sizes, per_table_hits)
            ],
            # Which leader batches this batch's coalesced misses joined
            # (accumulated inside ``coalescer.match`` across the per-group
            # fetches above; {} unless source tracking is on).
            coalesce_sources=(
                coalescer.drain_match_sources()
                if coalescer is not None else {}
            ),
        )

    def _fused_index_spec(
        self, table_counts, outcome, rep_tables, num_unique, num_tables
    ) -> KernelSpec:
        """The fused launch of every table's index (or coupled query)
        kernel.  Decoupled, it comes from the count vector in one step:
        each table's probe kernel is ``max(count, 1)`` warps, one random
        transaction per key, one dependent hop."""
        if not self.config.decouple_copy:
            # Per-table key counts almost never repeat from batch to
            # batch, so the coupled fused spec is summed afresh.
            return fused_kernel_spec(
                self._per_table_specs(
                    table_counts, outcome, rep_tables, num_tables
                ),
                "fc_index_fused",
            )
        # Each table's share is a whole number of warps already, so the
        # spec is fixed by the key count and the tables with no key.
        key = ("fused", num_unique,
               num_tables - int(np.count_nonzero(table_counts)))
        return self._spec_memo.get(key) or self._remember(key, KernelSpec(
            name="fc_index_fused",
            threads=fused_threads(np.maximum(table_counts, 1) * _WARP),
            random_transactions=num_unique,
            dependent_hops=1.0,
        ))

    def _per_table_specs(
        self, table_counts, outcome, rep_tables, num_tables
    ) -> List[KernelSpec]:
        """One index (decoupled) or coupled query (coupled) kernel spec per
        table, memoized per (table, count[, hit count]) shape."""
        memo = self._spec_memo
        specs = []
        if self.config.decouple_copy:
            for t, count in enumerate(table_counts.tolist()):  # lint: allow-loop (per table, unfused ablation only)
                key = ("index", t, count)
                specs.append(memo.get(key) or self._remember(
                    key, _index_kernel_spec(f"fc_index_t{t}", count)
                ))
            return specs
        # Fleche deduplicates regardless (§4), so the coupled ablation
        # queries unique keys and writes unique rows; the restore kernel
        # expands them, exactly as on the decoupled path.
        hit_counts = np.bincount(
            rep_tables[outcome.cache_hit], minlength=num_tables
        )
        for t, (count, hits) in enumerate(  # lint: allow-loop (per table, coupled ablation only)
            zip(table_counts.tolist(), hit_counts.tolist())
        ):
            key = ("coupled", t, count, hits)
            specs.append(memo.get(key) or self._remember(
                key, coupled_query_kernel_spec(
                    f"fc_query_t{t}",
                    num_keys=count,
                    hit_rows=hits,
                    output_rows=count,
                    dim=int(self._dim_of_table[t]),
                    hw=self.hw,
                    concurrent_tables=num_tables,
                ),
            ))
        return specs

    # ------------------------------------------------------------------ output

    def _assemble_outputs(
        self,
        batch: TraceBatch,
        inverse: np.ndarray,
        num_unique: int,
        unique_vectors: Dict[int, np.ndarray],
        groups: Sequence[_DimGroup],
    ) -> List[np.ndarray]:
        """Restore per-table output matrices from deduplicated rows."""
        bounds = batch.offsets
        # Uniform-dim fast path: group rows are unique-key positions, so
        # one gather expands every table's outputs and the per-table
        # matrices are contiguous views of it.
        if len(groups) == 1 and groups[0].positions is None:
            expanded = unique_vectors[groups[0].dim][inverse]
            return [
                expanded[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
            ]

        # Map each unique key position to (dim, row-within-dim-group).
        row_of_unique = np.zeros(num_unique, dtype=np.int64)
        for group in groups:
            row_of_unique[group.positions] = np.arange(len(group.positions))

        outputs: List[np.ndarray] = []
        for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            dim = int(self._dim_of_table[t])
            rows = row_of_unique[inverse[lo:hi]]
            outputs.append(unique_vectors[dim][rows] if hi > lo else
                           np.zeros((0, dim), np.float32))
        return outputs
