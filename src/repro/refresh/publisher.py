"""Trainer-side publisher: coalesces deltas into update-log batches.

The trainer retrains hot keys far more often than it produces publishable
batches, so the same key is frequently rewritten several times between
publishes.  Shipping every intermediate value would waste log bandwidth
and subscriber apply cycles on rows that are already dead; the publisher
therefore stages deltas in a per-``(table, key)`` buffer with
**last-write-wins coalescing** — a restage overwrites in place — and only
the final value of each key reaches the log.

Counter identity (audited by the ``refresh.publish-coalesce`` law):
``staged = published + coalesced + buffered`` — every staged key is
eventually published, was squashed by a newer write, or is still waiting
in the buffer (a gauge, refreshed by an audit hook).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigError, RefreshError
from ..obs.registry import MetricsRegistry, Observable
from .log import UpdateLog


class UpdatePublisher(Observable):
    """Stages trainer deltas and publishes them as versioned log batches.

    Args:
        log: destination :class:`~repro.refresh.log.UpdateLog`.
        max_batch_keys: publish splits the buffer into batches of at most
            this many keys, each getting its own log offset — bounding the
            apply quantum a subscriber must ingest atomically.
    """

    def __init__(self, log: UpdateLog, max_batch_keys: int = 4096):
        if max_batch_keys < 1:
            raise ConfigError("max_batch_keys must be >= 1")
        self.log = log
        self.max_batch_keys = int(max_batch_keys)
        #: (table_id, feature_id) -> vector; insertion-ordered, overwrite
        #: keeps the original position (publish order is deterministic).
        self._buffer: Dict[Tuple[int, int], np.ndarray] = {}
        self._dims: Dict[int, int] = {}

    # -------------------------------------------------------------- staging

    def stage(
        self, table_id: int, feature_ids: np.ndarray, vectors: np.ndarray
    ) -> None:
        """Stage refreshed rows; a later write to the same key wins."""
        feature_ids = np.asarray(feature_ids, dtype=np.uint64)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or len(feature_ids) != vectors.shape[0]:
            raise RefreshError("staged ids/vectors shape mismatch")
        dim = int(vectors.shape[1])
        known = self._dims.setdefault(int(table_id), dim)
        if known != dim:
            raise RefreshError(
                f"table {table_id}: staged dim {dim} != earlier dim {known}"
            )
        coalesced = 0
        for fid, vec in zip(feature_ids, vectors):
            key = (int(table_id), int(fid))
            if key in self._buffer:
                coalesced += 1
            self._buffer[key] = vec
        if len(feature_ids):
            self.obs.inc("refresh.staged_keys", len(feature_ids))
        if coalesced:
            self.obs.inc("refresh.coalesced_writes", coalesced)

    def drain(self, trainer, now: float = 0.0) -> int:
        """Pull one trainer round into the buffer and publish it.

        ``trainer`` provides ``next_round() -> (version, {table: (ids,
        vectors)})`` (duck-typed; see
        :class:`~repro.model.trainer.EmbeddingDeltaTrainer`).  Returns the
        round's model version.
        """
        version, updates = trainer.next_round()
        for table_id, (ids, vectors) in updates.items():
            self.stage(table_id, ids, vectors)
        self.publish(version, now)
        return version

    # ------------------------------------------------------------ publishing

    def publish(self, model_version: int, now: float = 0.0) -> list:
        """Flush the buffer into the log; returns the new offsets."""
        offsets = []
        items = list(self._buffer.items())
        self._buffer.clear()
        for start in range(0, len(items), self.max_batch_keys):
            chunk = items[start:start + self.max_batch_keys]
            per_table: Dict[int, list] = {}
            for (table_id, fid), vec in chunk:
                per_table.setdefault(table_id, []).append((fid, vec))
            updates = {}
            for table_id, rows in per_table.items():
                ids = np.array([fid for fid, _ in rows], dtype=np.uint64)
                vectors = np.stack([vec for _, vec in rows])
                updates[table_id] = (ids, vectors)
            offset = self.log.append(model_version, updates, published_at=now)
            offsets.append(offset)
            self.obs.inc("refresh.published_keys", len(chunk))
            self.obs.inc("refresh.published_batches", 1)
        self._refresh_gauges()
        return offsets

    # ---------------------------------------------------------- observability

    def _refresh_gauges(self) -> None:
        self.obs.set_gauge("refresh.buffered_keys", float(len(self._buffer)))

    def _register_observability(self, registry: MetricsRegistry) -> None:
        def _buffer_gauge():
            self._refresh_gauges()
            return True, f"buffered_keys={len(self._buffer)}"

        registry.add_check("refresh.publisher-buffer", _buffer_gauge)
        self._refresh_gauges()


__all__ = ["UpdatePublisher"]
