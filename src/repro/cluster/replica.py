"""One serving replica of the cluster: server + cache + refresh feed.

A :class:`ClusterReplica` owns the full single-node stack —
:class:`~repro.tables.store.EmbeddingStore`,
:class:`~repro.core.workflow.FlecheEmbeddingLayer`, and a
:class:`~repro.serving.pipeline.PipelinedInferenceServer` — plus its
subscription to the cluster's shared
:class:`~repro.refresh.log.UpdateLog`.  The router composes N of these;
this module owns the replica *lifecycle*:

* **warm-up**: pre-insert the Zipf head of every table so the hot set is
  replicated on each replica and failed-over hot traffic does not pay a
  cold-start (PAPERS.md, arXiv 2208.05321 motivates exactly this);
* **snapshot**: stamp the cache + subscriber position so a later crash
  has something to restore from;
* **crash**: drop all in-memory state — server, layer, store, and the
  subscriber's applied position die with the process;
* **recover**: rebuild the stack (a new ``incarnation``), restore the
  snapshot, and replay the shared log to the cluster's version frontier
  via :meth:`~repro.refresh.subscriber.UpdateSubscriber.catch_up`.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.config import FlecheConfig
from ..core.workflow import FlecheEmbeddingLayer
from ..errors import ConfigError
from ..gpusim.executor import Executor
from ..refresh import RefreshScheduler, UpdateSubscriber
from ..serving.batcher import BatchingPolicy
from ..serving.pipeline import PipelinedInferenceServer
from ..tables.store import EmbeddingStore
from ..workloads.trace import TraceBatch
from ..workloads.zipf import zipf_head_ids

# How every replica serves: its cache size (a fraction of all embedding
# parameters), batching policy, pipeline depth, and the update keys one
# idle slot's refresh quantum applies.
CACHE_RATIO = 0.05
MAX_BATCH_SIZE = 64
MAX_DELAY = 5e-4
DEPTH = 2
REFRESH_QUANTUM = 512


class ClusterReplica:
    """A crash-restartable serving replica with its own cache + feed."""

    def __init__(self, replica_id: int, dataset, hw):
        if replica_id < 0:
            raise ConfigError("replica_id must be >= 0")
        self.replica_id = replica_id
        self.dataset = dataset
        self.hw = hw
        #: Bumped on every (re)build; the router keys request streams on
        #: ``(replica, incarnation)`` so pre- and post-crash dispatches
        #: never share a pipeline.
        self.incarnation = -1
        self.server: Optional[PipelinedInferenceServer] = None
        self.layer: Optional[FlecheEmbeddingLayer] = None
        self.subscriber: Optional[UpdateSubscriber] = None
        self.snapshot_ = None
        self._log = None
        self._build()

    # ------------------------------------------------------------ lifecycle

    def _build(self) -> None:
        store = EmbeddingStore(self.dataset.table_specs(), self.hw)
        self.layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=CACHE_RATIO), self.hw
        )
        self.server = PipelinedInferenceServer(
            self.dataset, self.layer, self.hw,
            policy=BatchingPolicy(
                max_batch_size=MAX_BATCH_SIZE, max_delay=MAX_DELAY
            ),
            depth=DEPTH,
        )
        self.incarnation += 1

    @property
    def alive(self) -> bool:
        return self.server is not None

    def warm_hot_keys(self, seed: int, count: int) -> int:
        """Pre-insert each table's Zipf head (hot-key replication).

        Uses the same per-field sampler seeding as
        :class:`~repro.serving.arrivals.PoissonArrivals`, so the warmed
        ids are exactly the head the arrival stream will hammer.
        """
        if count <= 0:
            return 0
        ids_per_table = zipf_head_ids(self.dataset.fields, seed, count)
        count = len(ids_per_table[0])
        batch = TraceBatch(ids_per_table=ids_per_table, batch_size=count)
        self.layer.query(batch, Executor(self.hw))
        return count * len(ids_per_table)

    def attach_refresh(self, log, now: float = 0.0) -> None:
        """Subscribe this replica to the cluster's shared update log."""
        self._log = log
        self.subscriber = UpdateSubscriber(
            log, self.layer.cache, host_store=self.layer.store
        )
        self.subscriber.bind_observability(self.server.obs)
        self.server.refresher = RefreshScheduler(
            self.subscriber, self.hw, quantum_keys=REFRESH_QUANTUM
        )
        self.subscriber.catch_up(now)

    def take_snapshot(self):
        """Stamp cache contents + log position; survives a later crash."""
        if self.subscriber is None:
            raise ConfigError("attach_refresh before snapshotting")
        self.snapshot_ = self.subscriber.snapshot()
        return self.snapshot_

    def crash(self) -> None:
        """Lose all in-memory state; only ``snapshot_`` survives."""
        self.server = None
        self.layer = None
        self.subscriber = None

    def cold_restart(self) -> None:
        """Rebuild with an empty cache (no snapshot to restore from)."""
        self._build()

    def recover(self, now: float) -> int:
        """Rebuild, restore the snapshot, replay the log to the frontier.

        Returns the number of log batches replayed during catch-up.
        """
        if self.snapshot_ is None or self._log is None:
            raise ConfigError("cannot recover without a snapshot and a log")
        self._build()
        self.subscriber = UpdateSubscriber.from_snapshot(
            self.snapshot_, self.layer.cache, self._log,
            host_store=self.layer.store,
        )
        self.subscriber.bind_observability(self.server.obs)
        self.server.refresher = RefreshScheduler(
            self.subscriber, self.hw, quantum_keys=REFRESH_QUANTUM
        )
        return self.subscriber.catch_up(now)

    # ------------------------------------------------------------- queries

    def pending_replay_keys(self, at: float) -> int:
        """Keys between the snapshot position and the frontier at ``at``.

        This is the replay debt a recovery starting at ``at`` must pay
        before the replica is caught up; the health monitor converts it
        to a readmission delay via ``replay_keys_per_s``.
        """
        if self.snapshot_ is None or self._log is None:
            return 0
        latest = self._log.latest_published_offset(at)
        if latest < 0:
            return 0
        return self._log.keys_between(self.snapshot_.log_offset + 1, latest)

    def serve(self, requests: List) -> Optional[object]:
        if not self.alive:
            raise ConfigError(
                f"replica {self.replica_id} is crashed; recover() first"
            )
        if not requests:
            return None
        return self.server.serve(requests)


__all__ = ["ClusterReplica"]
