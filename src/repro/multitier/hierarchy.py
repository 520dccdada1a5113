"""The assembled three-tier parameter hierarchy (paper §5).

``GPU-HBM cache -> CPU-DRAM cache -> remote parameter server``

The hierarchy is a :class:`~repro.tables.store.HostStore` like the plain
:class:`~repro.tables.store.EmbeddingStore`, so Fleche's workflow runs on
top unchanged — the property §5 claims ("all our designs still work in
this scenario").  The one corner case is handled explicitly: when the
DRAM layer evicts an embedding, any unified-index pointer for it on the
GPU has gone stale; the hierarchy forwards the eviction notice to a
registered invalidator so the flat cache can erase those pointers before
they are trusted again.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..faults.degrade import DegradeConfig, degraded_vectors
from ..hardware import HardwareSpec
from ..tables.embedding_table import reference_vectors
from ..tables.row_map import RowMap
from ..tables.store import (
    HostStore,
    StoreQueryResult,
    pack_global_key,
    unpack_global_key,
)
from ..tables.table_spec import TableSpec
from .dram_cache import DramCacheLayer
from .remote_ps import RemoteParameterServer


class TieredParameterStore(HostStore):
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
        super().__init__(specs, hw)
        self.remote = remote or RemoteParameterServer(specs)
        self.degrade = degrade or DegradeConfig()
        self._invalidators: List[Callable[[np.ndarray], None]] = []
        #: Simulated wall-clock of the current query (drives fault windows).
        self._now = 0.0
        self._dram_flushed = False
        #: breaker-open seconds already folded into the registry counter.
        self._breaker_time_seen = 0.0
        # The stale shadow, one map per dimension keyed by the packed
        # global key, is only kept on the fault-aware path; fault-free
        # runs skip the bookkeeping entirely.
        self._stale: Dict[int, RowMap] = (
            {spec.dim: RowMap(spec.dim) for spec in specs}
            if self.remote.injector is not None else {}
        )

        self.dram = DramCacheLayer(specs, dram_capacity)
        self.dram.on_eviction(self._forward_invalidation)

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
        """The callable gets the packed keys the DRAM tier evicts (§5)."""
        self._invalidators.append(invalidator)

    def _forward_invalidation(self, global_keys: np.ndarray) -> None:
        self.obs.inc("tier.pointer_invalidations", len(global_keys))
        for invalidator in self._invalidators:
            invalidator(global_keys)

    # ------------------------------------------------------------------ faults

    def advance_to(self, now: float) -> None:
        """The serving loop calls this per batch, so shard outages and
        DRAM failures line up with request time."""
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

    # ---------------------------------------------------------------- refresh

    def apply_update(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> int:
        """Model-refresh write-through: update resident DRAM rows in place.

        A key the GPU cache evicts then comes back from DRAM at the new
        version.  Non-resident keys are untouched (see
        :meth:`DramCacheLayer.refresh`), and the remote tier takes no
        write: it answers with the version-0 reference rows.  Returns the
        number of DRAM rows updated.
        """
        return self.dram.refresh(table_id, feature_ids, vectors)

    # ------------------------------------------------------------------ query

    def query_many(
        self,
        table_ids: np.ndarray,
        feature_ids: np.ndarray,
        indexed_mask: Optional[np.ndarray] = None,
    ) -> StoreQueryResult:
        """Mixed-table batched query (same contract as EmbeddingStore).

        One pass over the batch, tables in ascending order: the DRAM
        tier's LRU pass (inside a DRAM failure window, a bypass that
        misses every key), one remote fetch timeline per table with
        misses, one row generation for every fetched key, and one
        degraded fill for the keys of every failed fetch.  ``_now`` is
        fixed for the call, so a failure window flushes the tier before
        the batch or not at all.  The batch's DRAM evictions reach the
        pointer invalidators as one notice, in eviction order.  Every
        out-of-corpus id raises before any tier state changes.
        """
        return self._query_by_table(
            table_ids, feature_ids, indexed_mask, self._sorted_rows
        )

    # hot-path: vectorized
    def _sorted_rows(self, tables, ids, segments, dim):
        """The rows of a batch sorted by table, the remote time they cost
        and how many were degraded (see :meth:`query_many`)."""
        n = len(ids)
        keys = pack_global_key(tables, ids)
        #: ``(table, keys fetched, outcome)`` of each fetch, in request order.
        fetches: List[tuple] = []
        now = self._now

        def fetch(table_id: int, unique: List[int]) -> bool:
            outcome = self.remote.timeline(table_id, len(unique), now)
            fetches.append((table_id, len(unique), outcome))
            return outcome.success

        obs = self.obs
        obs.inc("tier.lookup_keys", n)
        if self._dram_unavailable():
            # The flushed tier misses every key and admits none: each
            # table's distinct keys are fetched and nothing is cached.
            found = self.dram.lookup(
                segments, keys, lambda t, u: fetch(t, u) and False
            )
            obs.inc("tier.dram_bypass_queries", len(segments))
        else:
            found = self.dram.lookup(segments, keys, fetch)
            obs.inc("tier.dram_hits", len(found.hit_positions))
        missed, miss_positions = found.missed, found.miss_positions
        obs.inc("tier.dram_misses", len(miss_positions))

        out = np.empty((n, dim), dtype=np.float32)
        remote_time = 0.0
        degraded = 0
        if missed:
            missed_keys = np.array(missed, dtype=np.uint64)
            missed_rows, remote_time, degraded = self._missed_rows(
                missed_keys, fetches, found, dim
            )
            out[miss_positions] = missed_rows[
                np.searchsorted(missed_keys, keys[miss_positions])
            ]
        out[found.hit_positions] = found.hit_rows
        return out, remote_time, degraded

    # hot-path: vectorized
    def _missed_rows(self, missed_keys, fetches, found, dim):
        """Rows of a batch's distinct missed keys, the fetches' charge and
        how many of the keys were degraded.

        One row generation for every key whose fetch succeeded, feeding
        the stale shadow and the rows the DRAM pass ``found`` still owes;
        then one degraded fill for the keys of every failed fetch.
        ``tier.remote_time`` and the charge add the fetch times one at a
        time, in request order.
        """
        obs = self.obs
        success = [outcome.success for _, _, outcome in fetches]
        ok = np.repeat(success, [count for _, count, _ in fetches])
        missed_rows = np.empty((len(missed_keys), dim), dtype=np.float32)
        fetched = missed_keys[ok]
        rows = reference_vectors(*unpack_global_key(fetched), dim)
        missed_rows[ok] = rows
        stale = self._stale.get(dim)
        if stale is not None:
            stale.write(fetched, rows)
        self.dram.fill(found, missed_rows)
        obs.inc("tier.remote_fetches", len(fetches))
        obs.inc("tier.remote_keys", len(missed_keys))
        remote_time = 0.0
        for _, _, outcome in fetches:  # lint: allow-loop (per table)
            obs.inc("tier.remote_time", outcome.elapsed)
            remote_time += outcome.elapsed
        failed = ~ok
        degraded = int(np.count_nonzero(failed))
        failures = len(success) - sum(success)
        if failures:
            obs.inc("tier.remote_failures", failures)
            obs.inc("tier.degraded_keys", degraded)
            missed_rows[failed] = degraded_vectors(
                self.degrade, stale, missed_keys[failed], dim
            )
        return missed_rows, remote_time, degraded
