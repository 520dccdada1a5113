"""Per-replica subscriber: applies the update stream to a serving cache.

Each serving replica runs one :class:`UpdateSubscriber`.  It tracks the
last log offset and model version it applied, pulls due batches with
:meth:`apply_next`, pushes every row through
:class:`~repro.core.updates.UpdateApplier` into the GPU flat cache, and
writes through to the multitier host store so evicted-and-refetched keys
come back fresh.  Consistency model:

* **batch-atomic** — a batch is applied completely or not at all (no torn
  offsets); within a replica, versions are monotone;
* **bounded staleness, not synchrony** — replicas may trail the trainer;
  the gap is *measured* (version-lag / staleness gauges) and alerted on,
  never hidden;
* **crash recovery** — :meth:`snapshot` stamps the applied position into
  the cache snapshot; :meth:`from_snapshot` restores and resumes replay
  from the next offset, converging to the exact contents of a replica
  that never restarted (deterministic replay + last-write-wins applies);
* **lag past retention fails loudly** — a subscriber whose next offset
  was trimmed raises :class:`~repro.errors.RefreshError` unless it was
  explicitly allowed to resync (then the skipped keys are *counted* as
  dropped, preserving the stream-conservation audit).

The audited identity (``refresh.stream-conservation`` hook)::

    carried + applied + dropped == keys in offsets [0, applied_offset]

where *carried* is what a snapshot-restored replica inherited without
replaying.  Against the log's totals this extends to the tentpole law:
published = applied + pending + dropped-by-retention (+ carried).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.flat_cache import FlatCache
from ..core.snapshot import CacheSnapshot, restore, snapshot
from ..core.unified_index import is_dram_pointer, untag
from ..core.updates import UpdateApplier
from ..errors import RefreshError
from ..obs.registry import MetricsRegistry, Observable
from .log import DeltaBatch, UpdateLog


def fingerprint(cache: FlatCache) -> Dict[int, bytes]:
    """Cache contents as ``flat key -> vector bytes`` (stamps ignored).

    The equivalence relation of the recovery guarantee: two replicas
    whose fingerprints are equal serve bit-identical embeddings, whatever
    their internal slot layout or recency stamps look like.
    """
    keys, values, _ = cache.index.scan()
    cached = ~is_dram_pointer(values)
    keys = keys[cached]
    vectors = cache.pool.read(untag(values[cached]))
    return {
        int(key): vector.tobytes() for key, vector in zip(keys, vectors)
    }


class UpdateSubscriber(Observable):
    """Consumes an :class:`UpdateLog` into one replica's caches.

    Args:
        log: the shared update log.
        cache: the replica's GPU flat cache.
        host_store: optional multitier store; anything exposing
            ``apply_update(table_id, feature_ids, vectors)`` (duck-typed,
            e.g. :class:`~repro.multitier.hierarchy.TieredParameterStore`)
            gets the write-through.
        start_offset: log offset already reflected in ``cache`` (-1 for a
            fresh replica).
        start_version: model version already reflected in ``cache``.
        allow_gap: when the next offset has been trimmed, resync to the
            oldest retained batch and count the gap as dropped instead of
            raising.
    """

    def __init__(
        self,
        log: UpdateLog,
        cache: FlatCache,
        host_store=None,
        start_offset: int = -1,
        start_version: int = 0,
        allow_gap: bool = False,
    ):
        self.log = log
        self.cache = cache
        self.host_store = host_store
        self.applier = UpdateApplier(cache)
        self.applied_offset = int(start_offset)
        self.applied_version = int(start_version)
        self.allow_gap = allow_gap
        #: keys inherited from a snapshot (applied before this process).
        self._carried_keys = log.keys_between(0, self.applied_offset)
        self._applied_keys = 0
        self._dropped_keys = 0

    # --------------------------------------------------------------- stream

    def pending_keys(self, now: Optional[float] = None) -> int:
        """Published-but-unapplied keys (due at ``now`` when given)."""
        if now is None:
            head = self.log.latest_offset
        else:
            head = self.log.latest_published_offset(now)
        return self.log.keys_between(self.applied_offset + 1, head)

    def next_batch(self, now: float) -> Optional[DeltaBatch]:
        """The next due batch, or None (caught up / not due / outage).

        Raises :class:`RefreshError` when the next offset fell out of
        retention and ``allow_gap`` is off.
        """
        if not self.log.available(now):
            self.obs.inc("refresh.outage_polls", 1)
            return None
        offset = self.applied_offset + 1
        if offset >= self.log.next_offset:
            return None
        first = self.log.first_offset
        if offset < first:
            gap = self.log.keys_between(offset, first - 1)
            if not self.allow_gap:
                raise RefreshError(
                    f"subscriber at offset {self.applied_offset} lags past "
                    f"retention (oldest retained is {first}, {gap} keys "
                    f"lost); recover from a snapshot"
                )
            self._dropped_keys += gap
            if gap:
                self.obs.inc("refresh.dropped_keys", gap)
            self.obs.inc("refresh.resyncs", 1)
            self.applied_offset = first - 1
            offset = first
        batch = self.log.read(offset, now=now)
        if batch.published_at > now:
            return None
        return batch

    # hot-path: vectorized
    def apply_next(self, now: float) -> Optional[DeltaBatch]:
        """Apply the next due batch; returns it (None when none applied)."""
        batch = self.next_batch(now)
        if batch is None:
            return None
        self._inc_outcome(self.applier.apply_deltas(
            [(d.table_id, d.feature_ids, d.vectors) for d in batch.deltas]
        ))
        # The write-through only rewrites rows the host store already
        # holds, so it commutes with the cache refresh above.
        if hasattr(self.host_store, "apply_update"):
            for delta in batch.deltas:  # lint: allow-loop (per table: host-store write-through)
                self.host_store.apply_update(
                    delta.table_id, delta.feature_ids, delta.vectors
                )
        self.applied_offset = batch.offset
        self.applied_version = batch.model_version
        self._applied_keys += batch.num_keys
        if batch.num_keys:
            self.obs.inc("refresh.applied_keys", batch.num_keys)
        self.obs.inc("refresh.applied_batches", 1)
        return batch

    def catch_up(self, now: float) -> int:
        """Apply every due batch; returns how many."""
        applied = 0
        while self.apply_next(now) is not None:
            applied += 1
        return applied

    def _inc_outcome(self, outcome) -> None:
        for name, value in (
            ("refresh.refreshed_keys", outcome.refreshed),
            ("refresh.invalidated_keys", outcome.pointers_invalidated),
            ("refresh.skipped_pointer_keys", outcome.pointers_skipped),
            ("refresh.untracked_keys", outcome.untracked),
            ("refresh.duplicate_keys", outcome.duplicates),
        ):
            if value:
                self.obs.inc(name, value)

    # ------------------------------------------------------------- recovery

    def snapshot(self) -> CacheSnapshot:
        """Snapshot the cache with this replica's stream position."""
        return snapshot(
            self.cache,
            model_version=self.applied_version,
            log_offset=self.applied_offset,
        )

    @classmethod
    def from_snapshot(
        cls,
        snap: CacheSnapshot,
        cache: FlatCache,
        log: UpdateLog,
        host_store=None,
    ) -> "UpdateSubscriber":
        """Restore a replica and resume the stream where it left off."""
        restore(cache, snap)
        return cls(
            log,
            cache,
            host_store=host_store,
            start_offset=snap.log_offset,
            start_version=snap.model_version,
        )

    # ---------------------------------------------------------- observability

    def version_lag(self, now: Optional[float] = None) -> int:
        return max(0, self.log.latest_version(now) - self.applied_version)

    def staleness(self, now: float) -> float:
        """Age of the oldest due-but-unapplied batch (0.0 when current)."""
        oldest = self.log.oldest_unapplied_publish(self.applied_offset, now)
        if oldest is None:
            return 0.0
        return max(0.0, now - oldest)

    def refresh_gauges(self, now: float) -> None:
        """Publish the replica's staleness position as gauges."""
        head = self.log.latest_published_offset(now)
        self.obs.set_gauge(
            "refresh.offset_lag", float(max(0, head - self.applied_offset))
        )
        self.obs.set_gauge(
            "refresh.version_lag", float(self.version_lag(now))
        )
        self.obs.set_gauge(
            "refresh.pending_keys", float(self.pending_keys(now))
        )
        self.obs.set_gauge("refresh.staleness_s", self.staleness(now))
        self.obs.set_gauge(
            "refresh.applied_version", float(self.applied_version)
        )

    def _audit_stream(self):
        """Hook: carried + applied + dropped == keys up to applied_offset."""
        expected = self.log.keys_between(0, self.applied_offset)
        actual = self._carried_keys + self._applied_keys + self._dropped_keys
        ok = actual == expected
        detail = (
            f"carried({self._carried_keys}) + applied({self._applied_keys})"
            f" + dropped({self._dropped_keys}) = {actual}, log says "
            f"{expected} keys through offset {self.applied_offset}"
        )
        return ok, detail

    def _register_observability(self, registry: MetricsRegistry) -> None:
        if self._carried_keys:
            registry.inc("refresh.carried_keys", self._carried_keys)
        registry.add_check("refresh.stream-conservation", self._audit_stream)


__all__ = ["UpdateSubscriber", "fingerprint"]
