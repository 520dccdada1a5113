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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..gpusim.executor import Executor, Stream
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
from .fusion import fused_kernel_spec, fusion_metadata_bytes
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


@dataclass
class _DimGroup:
    """Work of one embedding dimension within a batch."""

    dim: int
    #: positions (into the batch's unique-key array) of this group's keys.
    positions: np.ndarray
    unique_keys: np.ndarray
    rep_tables: np.ndarray
    rep_features: np.ndarray


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
        self._spec_memo: Dict[tuple, object] = {}
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

    def _memo_spec(self, key: tuple, build):
        spec = self._spec_memo.get(key)
        if spec is None:
            spec = build()
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
        # Group by table over a stable sort order (one pass, no per-table
        # mask scans), encode each contiguous run, scatter back.
        order = np.argsort(tables, kind="stable")
        sorted_tables = tables[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], sorted_tables[1:] != sorted_tables[:-1]))
        )
        flat = np.zeros(len(global_keys), dtype=np.uint64)
        for i, start in enumerate(bounds):
            stop = bounds[i + 1] if i + 1 < len(bounds) else len(order)
            run = order[start:stop]
            flat[run] = self.cache.encode(
                int(sorted_tables[start]), features[run]
            )
        self.cache.invalidate_dram_pointers(flat)

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

    # hot-path: vectorized
    def _encode_batch(self, batch: TraceBatch, executor: Executor) -> np.ndarray:
        """Phase 1: host-side re-encoding of all ID lists to flat keys."""
        encode_time = (
            _ENCODE_COST_PER_TABLE * batch.num_tables
            + _ENCODE_COST_PER_KEY * batch.total_ids
        )
        executor.host_work(encode_time, Category.OTHER)
        keys = [
            self.cache.encode(t, ids) for t, ids in enumerate(batch.ids_per_table)
        ]
        return np.concatenate(keys) if keys else np.zeros(0, np.uint64)

    # hot-path: vectorized
    def _dedup_on_device(
        self, flat_keys: np.ndarray, executor: Executor, stream: Stream
    ):
        """Phase 2: ship keys to the device and deduplicate there."""
        executor.copy(
            flat_keys.nbytes, Category.OTHER, async_stream=stream
        )
        executor.launch(
            self._memo_spec(
                ("dedup", len(flat_keys)),
                lambda: dedup_kernel_spec(len(flat_keys)),
            ),
            stream=stream,
            category=Category.OTHER,
        )
        return deduplicate(flat_keys)

    def _dim_groups(
        self,
        unique_keys: np.ndarray,
        rep_tables: np.ndarray,
        rep_features: np.ndarray,
    ) -> List[_DimGroup]:
        # Uniform-dim fast path (the common case: one embedding width per
        # dataset): a single group covering every position, no masks.
        if self._uniform_dim is not None and len(unique_keys):
            return [
                _DimGroup(
                    dim=self._uniform_dim,
                    positions=np.arange(len(unique_keys)),
                    unique_keys=unique_keys,
                    rep_tables=rep_tables,
                    rep_features=rep_features,
                )
            ]
        dims = self._dim_of_table[rep_tables]
        groups = []
        for dim in np.unique(dims):
            mask = dims == dim
            positions = np.nonzero(mask)[0]
            groups.append(
                _DimGroup(
                    dim=int(dim),
                    positions=positions,
                    unique_keys=unique_keys[positions],
                    rep_tables=rep_tables[positions],
                    rep_features=rep_features[positions],
                )
            )
        return groups

    # ------------------------------------------------------------------ query

    # hot-path: vectorized
    def _query_stages(
        self, batch: TraceBatch, executor: Executor, coalescer=None
    ):
        config = self.config
        main_stream = executor.stream("main")
        copy_stream = executor.stream("copy")

        tables_flat, features_flat = batch.flattened()
        flat_keys = self._encode_batch(batch, executor)
        unique_keys, rep_index, inverse = self._dedup_on_device(
            flat_keys, executor, main_stream
        )
        rep_tables = tables_flat[rep_index]
        rep_features = features_flat[rep_index]

        # --- Phase 3: indexing.  Per-table work is described once; fusion
        # decides whether it becomes a single launch or one per table, and
        # decoupling decides whether the copy rides inside it (coupled) or
        # in separate gather kernels (phase 4a).
        outcome = self.cache.index_lookup(unique_keys)
        inserts_at_probe = self.cache.cached_inserts
        # Frequency estimation rides the indexing pass: one sketch fold of
        # the deduplicated keys (no-op unless mixed precision / LFU is on).
        self.cache.observe_keys(unique_keys)
        # Pin the reclamation epoch for the resolve -> gather window: the
        # locations just read from the index must stay readable through
        # phase 4a even if a concurrently pipelined batch's replacement
        # evicts them in between (read-after-delete safety, §3.1).  The
        # sequential path never contends, so this is free there.
        read_epoch = self.cache.reclaimer.pin()
        # One grouped bincount pass replaces the per-table mask loop; the
        # spec for each (table, count[, hit count]) shape is memoized, so
        # steady-state batches build zero new spec objects.
        table_counts = np.bincount(rep_tables, minlength=batch.num_tables)
        if config.decouple_copy:
            per_table_specs = [
                self._memo_spec(
                    ("index", t, count),
                    lambda t=t, count=count: _index_kernel_spec(
                        f"fc_index_t{t}", count
                    ),
                )
                for t, count in enumerate(table_counts.tolist())
            ]
        else:
            # Fleche deduplicates regardless (§4), so the coupled
            # ablation queries unique keys and writes unique rows; the
            # restore kernel expands them, exactly as on the decoupled
            # path.
            hit_counts = np.bincount(
                rep_tables[outcome.cache_hit], minlength=batch.num_tables
            )
            per_table_specs = [
                self._memo_spec(
                    ("coupled", t, count, hits),
                    lambda t=t, count=count, hits=hits:
                        coupled_query_kernel_spec(
                            f"fc_query_t{t}",
                            num_keys=count,
                            hit_rows=hits,
                            output_rows=count,
                            dim=int(self._dim_of_table[t]),
                            hw=self.hw,
                            concurrent_tables=batch.num_tables,
                        ),
                )
                for t, (count, hits) in enumerate(
                    zip(table_counts.tolist(), hit_counts.tolist())
                )
            ]
        if config.use_fusion:
            # Per-table key counts almost never repeat from batch to
            # batch, so the fused spec is summed afresh, not memoized.
            executor.copy(
                fusion_metadata_bytes(len(per_table_specs)),
                Category.CACHE_INDEX, async_stream=main_stream,
            )
            executor.launch(
                fused_kernel_spec(per_table_specs, "fc_index_fused"),
                stream=main_stream, category=Category.CACHE_INDEX,
            )
        else:
            for t, spec in enumerate(per_table_specs):  # lint: allow-loop (per table, unfused ablation only)
                stream = executor.stream(f"table{t}")
                executor.copy(
                    24 + 8 * spec.threads // _WARP,
                    Category.CACHE_INDEX,
                    async_stream=stream,
                )
                executor.launch(
                    spec, stream=stream, category=Category.CACHE_INDEX
                )

        # CPU needs the miss list: synchronise and read it back.
        executor.synchronize(None if not config.use_fusion else main_stream)
        miss_mask = outcome.miss
        executor.copy(max(1, int(miss_mask.sum())) * 8, Category.MAINTENANCE)

        # Stage boundary: the miss list is on the host; everything past
        # this point is the fetch/replacement phase a pipelined server may
        # overlap with another batch's indexing.
        yield STAGE_FETCH

        groups = self._dim_groups(unique_keys, rep_tables, rep_features)
        unique_vectors: Dict[int, np.ndarray] = {}
        for group in groups:  # lint: allow-loop (per dim group)
            unique_vectors[group.dim] = np.zeros(
                (len(group.positions), group.dim), dtype=np.float32
            )

        # --- Phase 4a: decoupled copy kernel(s) for the hits (async).
        # On the mixed-precision path the dequant fuses into this gather
        # (the spec's read side shrinks to the stored payload bytes) and a
        # hit doubles as a retier opportunity: keys whose frequency
        # estimate crossed a tier threshold move to their new tier while
        # their fp32 rows are already in registers.
        quantizing = self.cache.quantizing
        promoted_keys = 0
        demoted_keys = 0
        hit_rows_by_group = {}
        for group in groups:  # lint: allow-loop (per dim group)
            hit_here = outcome.cache_hit[group.positions]
            hit_rows_by_group[group.dim] = hit_here
            locations = outcome.locations[group.positions][hit_here]
            if config.decouple_copy:
                rows = len(locations)
                if quantizing:
                    read_bytes = self.cache.read_payload_bytes(locations)
                    spec = self._memo_spec(
                        ("copy", group.dim, rows, read_bytes),
                        lambda dim=group.dim, rows=rows, rb=read_bytes:
                            _copy_kernel_spec(
                                f"fc_copy_d{dim}", rows, dim, self.hw,
                                read_bytes=rb,
                            ),
                    )
                else:
                    spec = self._memo_spec(
                        ("copy", group.dim, rows),
                        lambda dim=group.dim, rows=rows: _copy_kernel_spec(
                            f"fc_copy_d{dim}", rows, dim, self.hw
                        ),
                    )
                executor.launch(
                    spec, stream=copy_stream, category=Category.CACHE_COPY
                )
            if len(locations):
                gathered = self.cache.gather(locations)
                unique_vectors[group.dim][hit_here] = gathered
                if quantizing:
                    up, down = self.cache.retier_hits(
                        group.unique_keys[hit_here],
                        locations,
                        gathered,
                        group.dim,
                    )
                    promoted_keys += up
                    demoted_keys += down
        self.cache.reclaimer.unpin(read_epoch)

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
            miss_here = miss_mask[group.positions]
            if not miss_here.any():
                continue
            dram_hit_here = outcome.dram_hit[group.positions][miss_here]
            miss_tables = group.rep_tables[miss_here]
            miss_features = group.rep_features[miss_here]
            miss_keys = group.unique_keys[miss_here]

            shared = None
            if coalescer is not None:
                shared, shared_rows, shared_degraded = coalescer.match(
                    miss_keys, group.dim
                )
                if not shared.any():
                    shared = None
            if shared is None:
                # No in-flight overlap: this batch leads on every miss.
                lead = np.ones(len(miss_keys), dtype=bool)
                indexed_mask = (
                    dram_hit_here if config.use_unified_index else None
                )
                store_result = self.store.query_many(
                    miss_tables, miss_features, indexed_mask=indexed_mask
                )
                vectors = store_result.vectors
                lead_vectors = vectors
            else:
                lead = ~shared
                coalesced_keys += int(shared.sum())
                coalesced_degraded += int(shared_degraded)
                vectors = np.zeros((len(miss_keys), group.dim), np.float32)
                vectors[shared] = shared_rows
                store_result = None
                lead_vectors = np.zeros((0, group.dim), np.float32)
                if lead.any():
                    indexed_mask = (
                        dram_hit_here[lead]
                        if config.use_unified_index else None
                    )
                    store_result = self.store.query_many(
                        miss_tables[lead],
                        miss_features[lead],
                        indexed_mask=indexed_mask,
                    )
                    lead_vectors = store_result.vectors
                    vectors[lead] = lead_vectors
            group_degraded = 0
            if store_result is not None:
                group_degraded = store_result.degraded_keys
                degraded_keys += group_degraded
                executor.host_work(
                    store_result.cost.index_time, Category.DRAM_INDEX
                )
                executor.host_work(
                    store_result.cost.copy_time, Category.DRAM_COPY
                )
                payload = store_result.vectors.nbytes
                executor.copy(
                    payload, Category.DRAM_COPY, async_stream=copy_stream
                )
            unique_vectors[group.dim][miss_here] = vectors
            lead_keys = miss_keys[lead]
            lead_dram = dram_hit_here[lead]
            total_unified += int(lead_dram.sum())
            # Miss-routing accounting: every deduplicated miss either leads
            # its own fetch or coalesces onto an in-flight one (the
            # ``fleche.miss-routing`` conservation law).
            self.obs.inc("cache.unique_misses", len(miss_keys))
            self.obs.inc("cache.lead_keys", int(lead.sum()))
            if coalescer is not None and len(lead_keys):
                coalescer.publish(
                    lead_keys, lead_vectors, degraded=group_degraded > 0
                )

            # Phase 6 (replacement) is deferred to the copy stage: the
            # paper's replacement copy/indexing kernels run on device
            # streams, so the new key -> location mappings only become
            # visible once that device work executes (§3.3) — not while
            # the CPU is still mid-fetch.  Only the leading keys replace;
            # coalesced followers must not insert a second time.
            if len(lead_keys):
                pending_replacements.append((
                    group.dim, lead_keys, lead_vectors, lead_dram,
                    miss_tables[lead], miss_features[lead],
                ))

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
        reprobe = self.cache.cached_inserts != inserts_at_probe
        for (dim, lead_keys, lead_vectors, lead_dram,  # lint: allow-loop (per dim group)
             lead_tables, lead_features) in pending_replacements:
            keep = ~self.cache.contains_cached(lead_keys) if reprobe else None
            if keep is not None and not keep.all():
                lead_keys = lead_keys[keep]
                lead_vectors = lead_vectors[keep]
                lead_dram = lead_dram[keep]
                lead_tables = lead_tables[keep]
                lead_features = lead_features[keep]
                if not len(lead_keys):
                    continue
            inserted_mask, _ = self.cache.admit_and_insert(
                lead_keys,
                lead_vectors,
                dim,
                dram_mask=lead_dram,
            )
            inserted = int(inserted_mask.sum())
            executor.launch(
                self._memo_spec(
                    ("replace_copy", dim, inserted),
                    lambda dim=dim, rows=inserted: _copy_kernel_spec(
                        f"fc_replace_copy_d{dim}", rows, dim, self.hw
                    ),
                ),
                stream=copy_stream,
                category=Category.CACHE_COPY,
            )
            executor.launch(
                self._memo_spec(
                    ("replace_index", dim, inserted),
                    lambda dim=dim, rows=inserted: _index_kernel_spec(
                        f"fc_replace_index_d{dim}", rows, hops=2.0
                    ),
                ),
                stream=main_stream,
                category=Category.CACHE_INDEX,
            )
            # Denied, not-yet-tracked keys may enter the unified index.
            if config.use_unified_index:
                candidates = ~inserted_mask & ~lead_dram
                if candidates.any():
                    rows = (
                        lead_tables[candidates].astype(np.uint64)
                        << np.uint64(40)
                    ) | lead_features[candidates]
                    self.cache.publish_dram_pointers(
                        lead_keys[candidates], rows
                    )

        # --- Phase 7: restore the full output matrices from unique rows
        # (both paths — Fleche always deduplicates, §4).
        executor.launch(
            self._memo_spec(
                ("restore", len(flat_keys), len(unique_keys)),
                lambda: restore_kernel_spec(
                    len(flat_keys), self._weighted_dim,
                    unique_rows=len(unique_keys),
                ),
            ),
            stream=copy_stream,
            category=Category.OTHER,
        )
        executor.synchronize(None)

        outputs = self._assemble_outputs(
            batch, inverse, unique_keys, unique_vectors, groups
        )
        # Hit statistics are per *access* (duplicates weighted), matching
        # how the paper's hit rates are measured.
        # Every access is a hit or a miss, so misses are what hits leave.
        counts = np.bincount(inverse, minlength=len(unique_keys))
        hit_counts = counts[outcome.cache_hit]
        hits = int(hit_counts.sum())
        per_table_hits = [
            int(h) for h in np.bincount(
                rep_tables[outcome.cache_hit],
                weights=hit_counts,
                minlength=batch.num_tables,
            )
        ]
        per_table_misses = [
            len(ids) - h for ids, h in zip(batch.ids_per_table, per_table_hits)
        ]
        return CacheQueryResult(
            outputs=outputs,
            hits=hits,
            misses=len(flat_keys) - hits,
            unified_hits=total_unified,
            unique_keys=len(unique_keys),
            total_keys=len(flat_keys),
            coalesced_keys=coalesced_keys,
            coalesced_degraded=coalesced_degraded,
            degraded_keys=degraded_keys,
            promoted_keys=promoted_keys,
            demoted_keys=demoted_keys,
            per_table_hits=per_table_hits,
            per_table_misses=per_table_misses,
            # Which leader batches this batch's coalesced misses joined
            # (accumulated inside ``coalescer.match`` across the per-group
            # fetches above; {} unless source tracking is on).
            coalesce_sources=(
                coalescer.drain_match_sources()
                if coalescer is not None else {}
            ),
        )

    # ------------------------------------------------------------------ output

    def _assemble_outputs(
        self,
        batch: TraceBatch,
        inverse: np.ndarray,
        unique_keys: np.ndarray,
        unique_vectors: Dict[int, np.ndarray],
        groups: Sequence[_DimGroup],
    ) -> List[np.ndarray]:
        """Restore per-table output matrices from deduplicated rows."""
        # Uniform-dim fast path: group rows are unique-key positions, so
        # one gather expands every table's outputs and the per-table
        # matrices are contiguous views of it.
        if (
            self._uniform_dim is not None
            and len(groups) == 1
            and len(groups[0].positions) == len(unique_keys)
        ):
            expanded = unique_vectors[self._uniform_dim][inverse]
            outputs = []
            offset = 0
            for ids in batch.ids_per_table:
                outputs.append(expanded[offset:offset + len(ids)])
                offset += len(ids)
            return outputs

        # Map each unique key position to (dim, row-within-dim-group).
        dim_of_unique = np.zeros(len(unique_keys), dtype=np.int64)
        row_of_unique = np.zeros(len(unique_keys), dtype=np.int64)
        for group in groups:
            dim_of_unique[group.positions] = group.dim
            row_of_unique[group.positions] = np.arange(len(group.positions))

        outputs: List[np.ndarray] = []
        offset = 0
        for t, ids in enumerate(batch.ids_per_table):
            n = len(ids)
            dim = int(self._dim_of_table[t])
            positions = inverse[offset:offset + n]
            rows = row_of_unique[positions]
            outputs.append(unique_vectors[dim][rows] if n else
                           np.zeros((0, dim), np.float32))
            offset += n
        return outputs
