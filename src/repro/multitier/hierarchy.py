"""The assembled three-tier parameter hierarchy (paper §5).

``GPU-HBM cache -> CPU-DRAM cache -> remote parameter server``

The hierarchy exposes the same batched query interface as the plain
:class:`~repro.tables.store.EmbeddingStore`, so Fleche's workflow runs on
top unchanged — the property §5 claims ("all our designs still work in
this scenario").  The one corner case is handled explicitly: when the
DRAM layer evicts an embedding, any unified-index pointer for it on the
GPU has gone stale; the hierarchy forwards the eviction notice to a
registered invalidator so the flat cache can erase those pointers before
they are trusted again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from ..faults.degrade import DegradeConfig, StaleStore, degraded_vectors
from ..hashindex.host_hash import HostQueryCost, host_query_cost
from ..hardware import HardwareSpec
from ..obs.registry import Observable
from ..tables.store import StoreQueryResult
from ..tables.table_spec import TableSpec
from .dram_cache import DramCacheLayer
from .remote_ps import RemoteParameterServer


@dataclass
class TierStats:
    """Aggregate traffic counters per tier."""

    dram_hits: int = 0
    dram_misses: int = 0
    remote_fetches: int = 0
    remote_keys: int = 0
    pointer_invalidations: int = 0
    #: Remote fetches that exhausted their retry budget (or were failed
    #: fast by an open breaker) and fell back to the degrade policy.
    remote_failures: int = 0
    #: Keys served a degraded (stale or default) vector.
    degraded_keys: int = 0

    @property
    def dram_hit_rate(self) -> float:
        total = self.dram_hits + self.dram_misses
        return self.dram_hits / total if total else 0.0


class TieredParameterStore(Observable):
    """Drop-in EmbeddingStore replacement backed by a remote tier.

    Args:
        specs: table specs.
        hw: the platform (for DRAM cost modelling).
        dram_capacity: embeddings the local DRAM tier can hold.
        remote: the remote parameter server (default configuration if
            omitted).  Give it a fault injector to exercise the
            resilient fetch path.
        degrade: what to serve when the remote tier cannot answer within
            its retry budget (default: stale values with zero fallback).
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        hw: HardwareSpec,
        dram_capacity: int,
        remote: Optional[RemoteParameterServer] = None,
        degrade: Optional[DegradeConfig] = None,
    ):
        if not specs:
            raise WorkloadError("tiered store needs at least one table")
        self.specs = list(specs)
        self.hw = hw
        self.remote = remote or RemoteParameterServer(specs)
        self.degrade = degrade or DegradeConfig()
        self.stats = TierStats()
        self._invalidators: List[Callable[[np.ndarray], None]] = []
        #: Simulated wall-clock of the current query (drives fault windows).
        self._now = 0.0
        self._dram_flushed = False
        #: Eviction notices held back while a ``query_many`` is running
        #: (None outside one: notices are forwarded as they arrive).
        self._held_evictions: Optional[List[np.ndarray]] = None
        #: breaker-open seconds already folded into the registry counter.
        self._breaker_time_seen = 0.0
        # The stale shadow is only maintained on the fault-aware path;
        # fault-free runs skip the bookkeeping entirely.
        self._stale: Optional[StaleStore] = (
            StaleStore() if self.remote.injector is not None else None
        )

        self.dram = DramCacheLayer(specs, dram_capacity, self._backing_fetch)
        self.dram.on_eviction(self._forward_invalidation)

    def _backing_fetch(self, table_id: int, feature_ids: np.ndarray):
        """Remote fetch with degradation; feeds the DRAM layer on miss.

        Returns ``(vectors, network_time, cacheable)`` — degraded
        fallbacks are served but never inserted into the DRAM cache.
        """
        result = self.remote.fetch(table_id, feature_ids, now=self._now)
        self.stats.remote_fetches += 1
        self.stats.remote_keys += len(feature_ids)
        obs = self.obs
        obs.inc("tier.remote_fetches")
        obs.inc("tier.remote_keys", len(feature_ids))
        obs.inc("tier.remote_time", result.network_time)
        if result.success:
            if self._stale is not None:
                self._stale.update(table_id, feature_ids, result.vectors)
            return result.vectors, result.network_time, True
        self.stats.remote_failures += 1
        self.stats.degraded_keys += len(feature_ids)
        obs.inc("tier.remote_failures")
        obs.inc("tier.degraded_keys", len(feature_ids))
        vectors, _ = degraded_vectors(
            self.degrade, self._stale, table_id, feature_ids,
            self.specs[table_id].dim,
        )
        return vectors, result.network_time, False

    # ------------------------------------------------------------------ info

    @property
    def num_tables(self) -> int:
        return len(self.specs)

    def spec_of(self, table_id: int) -> TableSpec:
        return self.specs[table_id]

    # ------------------------------------------------------------------ obs

    def _register_observability(self, registry) -> None:
        self.dram.bind_observability(registry)
        client = self.remote.client
        if client is not None:
            client.bind_observability(registry)
        registry.add_check("tier.breaker-open-time", self._sync_breaker_time)

    def _sync_breaker_time(self):
        """Audit hook: fold newly-accrued breaker-open seconds into the
        monotone ``faults.breaker_open_time`` counter.

        The breaker reports cumulative open time as a function of ``now``;
        the counter advances by the delta since the last audit, so registry
        snapshots diff correctly across serving runs.
        """
        client = self.remote.client
        if client is not None:
            open_time = client.breaker_open_time(self._now)
            delta = open_time - self._breaker_time_seen
            if delta > 0:
                self.obs.inc("faults.breaker_open_time", delta)
                self._breaker_time_seen = open_time
        return True

    # ------------------------------------------------------------------ hooks

    def register_pointer_invalidator(
        self, invalidator: Callable[[np.ndarray], None]
    ) -> None:
        """Register the GPU-side unified-index invalidator (§5).

        The callable receives the *global keys* (``table << 48 | feature``)
        of embeddings evicted from the DRAM tier.
        """
        self._invalidators.append(invalidator)

    def _forward_invalidation(self, global_keys: np.ndarray) -> None:
        if self._held_evictions is not None:
            self._held_evictions.append(global_keys)
            return
        self.stats.pointer_invalidations += len(global_keys)
        self.obs.inc("tier.pointer_invalidations", len(global_keys))
        for invalidator in self._invalidators:
            invalidator(global_keys)

    # ------------------------------------------------------------------ faults

    def advance_to(self, now: float) -> None:
        """Set the simulated wall-clock for subsequent queries.

        The serving loop calls this per batch so fault windows (shard
        outages, DRAM-tier failures) line up with request timestamps.
        """
        self._now = float(now)

    def fault_windows(self) -> List[tuple]:
        """Merged fault windows of the installed schedule (may be empty)."""
        injector = self.remote.injector
        return injector.schedule.fault_windows() if injector else []

    def _dram_unavailable(self) -> bool:
        """Whether the DRAM tier is inside a failure window right now.

        On first sight of a window the tier's contents are flushed —
        firing each key's pointer invalidation exactly once — and
        lookups bypass DRAM until the window closes.
        """
        injector = self.remote.injector
        if injector is None or not injector.dram_down(self._now):
            self._dram_flushed = False
            return False
        if not self._dram_flushed:
            self.dram.flush()
            self._dram_flushed = True
        return True

    def _tier_lookup(self, table_id: int, feature_ids: np.ndarray):
        """DRAM-or-remote lookup for one table; updates tier stats."""
        obs = self.obs
        obs.inc("tier.lookup_keys", len(feature_ids))
        if self._dram_unavailable():
            self.stats.dram_misses += len(feature_ids)
            obs.inc("tier.dram_bypass_queries")
            obs.inc("tier.dram_misses", len(feature_ids))
            if not len(feature_ids):
                dim = self.specs[table_id].dim
                return np.zeros((0, dim), np.float32), 0.0
            unique, inverse = np.unique(feature_ids, return_inverse=True)
            vectors, fetch_time, _ = self._backing_fetch(table_id, unique)
            return vectors[inverse], fetch_time
        before_h, before_m = self.dram.hits, self.dram.misses
        vectors, fetch_time = self.dram.lookup(table_id, feature_ids)
        self.stats.dram_hits += self.dram.hits - before_h
        self.stats.dram_misses += self.dram.misses - before_m
        obs.inc("tier.dram_hits", self.dram.hits - before_h)
        obs.inc("tier.dram_misses", self.dram.misses - before_m)
        return vectors, fetch_time

    # ---------------------------------------------------------------- refresh

    def apply_update(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Model-refresh write-through: update resident DRAM rows in place.

        Called by the refresh subscriber so a key that is evicted from
        the GPU cache and later refetched comes back at the new model
        version instead of resurrecting a stale row.  Non-resident keys
        are untouched (see :meth:`DramCacheLayer.refresh`); the remote
        tier is the trainer's own parameter server and needs no write.
        Returns the number of DRAM rows updated.
        """
        return self.dram.refresh(table_id, feature_ids, vectors)

    # ------------------------------------------------------------------ query

    # hot-path: vectorized
    def query_many(
        self,
        table_ids: np.ndarray,
        feature_ids: np.ndarray,
        indexed_mask: Optional[np.ndarray] = None,
    ) -> StoreQueryResult:
        """Mixed-table batched query (same contract as EmbeddingStore).

        DRAM-tier eviction notices raised while the batch is served —
        including a whole-tier flush when a failure window opens between
        two of its tables — are forwarded to the pointer invalidators
        once, in eviction order, before returning: nothing reads the GPU
        index while the store is being queried, and one erase per batch
        replaces one per table.
        """
        table_ids = np.asarray(table_ids)
        feature_ids = np.asarray(feature_ids, dtype=np.uint64)
        if table_ids.shape != feature_ids.shape:
            raise WorkloadError("query_many: shape mismatch")
        if len(table_ids) == 0:
            return StoreQueryResult(
                np.zeros((0, 0), np.float32), host_query_cost(self.hw, 0, 0)
            )
        tables = np.unique(table_ids)
        dims = {self.specs[int(t)].dim for t in tables}
        if len(dims) != 1:
            raise WorkloadError("query_many: tables must share one dimension")
        dim = dims.pop()

        vectors = np.zeros((len(table_ids), dim), dtype=np.float32)
        remote_time = 0.0
        payload = 0
        self._held_evictions = []
        try:
            for table_id in tables:  # lint: allow-loop (per table in the batch)
                mask = table_ids == table_id
                got, fetch_time = self._tier_lookup(
                    int(table_id), feature_ids[mask]
                )
                vectors[mask] = got
                remote_time += fetch_time
                payload += (
                    int(mask.sum()) * self.specs[int(table_id)].value_bytes
                )
        finally:
            held, self._held_evictions = self._held_evictions, None
            if held:
                self._forward_invalidation(np.concatenate(held))

        if indexed_mask is None:
            keys_to_index = len(table_ids)
        else:
            keys_to_index = int((~np.asarray(indexed_mask, bool)).sum())
        local = host_query_cost(self.hw, keys_to_index, payload)
        cost = HostQueryCost(
            index_time=local.index_time,
            copy_time=local.copy_time + remote_time,
        )
        return StoreQueryResult(vectors=vectors, cost=cost)
