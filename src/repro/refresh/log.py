"""The update log: an append-only stream of versioned embedding deltas.

Continuously retrained recommendation models ship refreshed embeddings to
the serving fleet while inference keeps running — NVIDIA's GPU-specialized
inference parameter server streams incremental updates through a message
buffer for exactly this reason (arXiv:2210.08804), and HierarchicalKV
frames the same problem as continuous online embedding storage.  The
:class:`UpdateLog` is that buffer, reduced to its essentials:

* **append-only and offset-addressed** — every published
  :class:`DeltaBatch` gets the next integer offset; offsets are strictly
  monotonic and never reused;
* **model-version-stamped** — each batch carries the (nondecreasing)
  trainer version it belongs to, the global ordering primitive that
  Fleche's per-slot version stamps (§3.1) meet at the cache;
* **bounded retention** — only the newest ``retention`` batches stay
  readable; a subscriber that lags past the trim point must recover from
  a snapshot (reads of trimmed offsets fail loudly, they never silently
  skip);
* **deterministic replay** — reading ``[offset, head)`` twice yields
  byte-identical batches, so a restarted replica converges to the exact
  state of one that never restarted.

Per-batch key counts are retained for *every* offset ever appended (a few
ints per batch), so the stream-conservation audit — published = applied +
pending + dropped-by-retention — stays exact even after trimming.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigError, RefreshError


@dataclass(frozen=True)
class TableDelta:
    """Updated rows of one table inside a delta batch."""

    table_id: int
    feature_ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if len(self.feature_ids) != self.vectors.shape[0]:
            raise RefreshError(
                f"table {self.table_id}: ids/vectors length mismatch"
            )

    @property
    def num_keys(self) -> int:
        return len(self.feature_ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@dataclass(frozen=True)
class DeltaBatch:
    """One offset of the update log: a version-stamped set of deltas."""

    offset: int
    model_version: int
    published_at: float
    deltas: Tuple[TableDelta, ...]

    @property
    def num_keys(self) -> int:
        return sum([len(delta.feature_ids) for delta in self.deltas])


def _freeze_deltas(
    updates: Mapping[int, Tuple[np.ndarray, np.ndarray]],
) -> Tuple[TableDelta, ...]:
    deltas = []
    for table_id in sorted(updates):
        feature_ids, vectors = updates[table_id]
        feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise RefreshError(f"table {table_id}: vectors must be 2-D")
        deltas.append(TableDelta(int(table_id), feature_ids, vectors))
    return tuple(deltas)


class UpdateLog:
    """Append-only, offset-addressed log of model-update batches.

    Args:
        retention: newest batches kept readable (older ones are trimmed).
        schedule: optional :class:`~repro.faults.schedule.FaultSchedule`;
            while an ``UpdateLogOutage`` window is active, :meth:`read`
            refuses to serve (metadata queries — head offset, latest
            version, key counts — stay answerable: they model the
            trainer-side control plane, not the payload path).
    """

    def __init__(self, retention: int = 512, schedule=None):
        if retention < 1:
            raise ConfigError("update-log retention must be >= 1")
        self.retention = int(retention)
        self.schedule = schedule
        self._batches: Deque[DeltaBatch] = deque()
        self._first = 0  # offset of the oldest retained batch
        self._next = 0  # offset the next append will get
        #: cumulative key counts: ``_cum[i]`` = keys in offsets ``[0, i)``
        #: — kept for every offset ever appended (audit history).
        self._cum: list = [0]
        #: ``(published_at, model_version)`` per offset, full history, for
        #: time-gated version queries that survive trimming.
        self._meta: list = []
        self.total_keys = 0

    def __len__(self) -> int:
        return len(self._batches)

    # --------------------------------------------------------------- append

    @property
    def first_offset(self) -> int:
        """Oldest retained offset (== ``next_offset`` when empty)."""
        return self._first

    @property
    def next_offset(self) -> int:
        return self._next

    @property
    def latest_offset(self) -> int:
        """Highest appended offset; ``-1`` before the first append."""
        return self._next - 1

    def append(
        self,
        model_version: int,
        updates: Mapping[int, Tuple[np.ndarray, np.ndarray]],
        published_at: float = 0.0,
    ) -> int:
        """Append one delta batch; returns its offset.

        Model versions and publish instants must be nondecreasing — the
        log is the serialization point of the trainer's output.
        """
        if self._meta:
            last_at, last_version = self._meta[-1]
            if model_version < last_version:
                raise RefreshError(
                    f"model version went backwards: {model_version} after "
                    f"{last_version}"
                )
            if published_at < last_at:
                raise RefreshError(
                    f"publish time went backwards: {published_at:g} after "
                    f"{last_at:g}"
                )
        deltas = _freeze_deltas(updates)
        batch = DeltaBatch(
            offset=self._next,
            model_version=int(model_version),
            published_at=float(published_at),
            deltas=deltas,
        )
        self._batches.append(batch)
        self._next += 1
        self._cum.append(self._cum[-1] + batch.num_keys)
        self._meta.append((batch.published_at, batch.model_version))
        self.total_keys += batch.num_keys
        while len(self._batches) > self.retention:
            self._batches.popleft()
            self._first += 1
        return batch.offset

    # ---------------------------------------------------------------- reads

    def available(self, now: Optional[float] = None) -> bool:
        """Whether the payload path is reachable at ``now``."""
        if now is None or self.schedule is None:
            return True
        return not self.schedule.update_log_down(now)

    def read(self, offset: int, now: Optional[float] = None) -> DeltaBatch:
        """The batch at ``offset``; fails loudly when it is unreadable."""
        if not self.available(now):
            raise RefreshError(
                f"update log unavailable at t={now:g} (outage window)"
            )
        if offset < 0 or offset >= self._next:
            raise RefreshError(
                f"offset {offset} not yet published (head is {self._next})"
            )
        if offset < self._first:
            raise RefreshError(
                f"offset {offset} trimmed by retention (oldest retained is "
                f"{self._first}); recover from a snapshot and replay"
            )
        return self._batches[offset - self._first]

    # ------------------------------------------------------------- metadata

    def keys_between(self, lo: int, hi: int) -> int:
        """Total keys in offsets ``[lo, hi]`` (exact even when trimmed)."""
        lo = max(lo, 0)
        hi = min(hi, self._next - 1)
        if lo > hi:
            return 0
        return self._cum[hi + 1] - self._cum[lo]

    def latest_version(self, now: Optional[float] = None) -> int:
        """Highest model version published at or before ``now`` (all of
        them when ``now`` is omitted); 0 before the first publish."""
        if not self._meta:
            return 0
        if now is None:
            return self._meta[-1][1]
        i = bisect_right(self._meta, (float(now), float("inf")))
        if i == 0:
            return 0
        return self._meta[i - 1][1]

    def latest_published_offset(self, now: float) -> int:
        """Highest offset published at or before ``now`` (-1 if none)."""
        return bisect_right(self._meta, (float(now), float("inf"))) - 1

    def oldest_unapplied_publish(
        self, applied_offset: int, now: float
    ) -> Optional[float]:
        """Publish instant of the oldest retained batch past
        ``applied_offset`` that is already due at ``now`` (else None)."""
        start = max(applied_offset + 1, self._first)
        for offset in range(start, self._next):
            batch = self._batches[offset - self._first]
            if batch.published_at > now:
                return None
            return batch.published_at
        return None


__all__ = ["DeltaBatch", "TableDelta", "UpdateLog"]
