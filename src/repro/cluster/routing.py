"""Pluggable request-routing policies for the serving cluster.

A policy answers one question — *which replica owns this request?* —
given the set of currently-routable replicas.  Failover and hedging are
the router's job, not the policy's: when the primary is unhealthy the
router walks the replica ring itself, so every policy stays a pure
function of ``(request, healthy set)`` plus, for the load-aware policy,
its own dispatch history.

Three policies ship, mirroring the partitioning primitives that
:mod:`repro.multigpu.partition` already provides:

``hash``
    Consistent hashing of the request's first feature key through
    :class:`~repro.multigpu.partition.HashPartitioner` — the same
    mix-and-mod the multi-GPU flat cache uses, so a request's cache
    affinity survives across runs and replica counts are compared on
    identical key->owner mappings.

``table-shard``
    The key space is folded into ``num_shards`` coarse shards and
    shards are assigned to replicas through
    :class:`~repro.multigpu.partition.TablePartitioner` — coarser than
    per-key hashing, but shard ownership is an explicit, auditable
    table.

``least-outstanding``
    Load-aware: dispatch to the routable replica with the fewest
    dispatches inside a trailing service window, ties broken by lowest
    replica id.  No cache affinity, best tail behaviour under skew.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..multigpu.partition import HashPartitioner, TablePartitioner
from ..serving.arrivals import Request

#: Policy names accepted by :func:`make_policy` and the CLI/benchmarks.
POLICY_NAMES = ("hash", "table-shard", "least-outstanding")


class RoutingPolicy:
    """Base class: maps a request to its primary replica."""

    name = "base"

    def __init__(self, num_replicas: int):
        if num_replicas < 1:
            raise ConfigError("routing needs at least one replica")
        self.num_replicas = num_replicas

    def primary(self, request: Request, healthy: Sequence[int]) -> int:
        raise NotImplementedError

    def primary_many(
        self, requests: Sequence[Request]
    ) -> Optional[np.ndarray]:
        """Primaries for a whole arrival stream, as one array.

        A policy answers only if its choice is a pure function of the
        request — independent of the healthy set and of dispatch
        history.  The router then plans the stream as arrays, faults or
        not, and never calls :meth:`note_dispatch`.  Returns None when
        the policy cannot answer in bulk (load-aware policies); the
        router then plans request by request.
        """
        return None

    def note_dispatch(self, replica: int, at: float) -> None:
        """Hook for load-aware policies; stateless policies ignore it."""

    def _routing_key(self, request: Request, table: int) -> int:
        ids = request.feature_ids[table]
        if len(ids) == 0:
            return request.request_id
        return int(ids[0])

    def _routing_keys(
        self, requests: Sequence[Request], table: int
    ) -> np.ndarray:
        """Routing keys of a whole stream as one uint64 array.

        When every request carries a row of one shared id cube
        (``Request.source``), the keys are one gather out of it.
        """
        sources = [r.source for r in requests]
        cube = sources[0][0] if sources and sources[0] is not None else None
        if (
            cube is not None
            and cube.ndim == 3
            and cube.shape[2] > 0  # an empty id list routes by request id
            and all(s is not None and s[0] is cube for s in sources)
        ):
            rows = np.fromiter(
                (s[1] for s in sources), dtype=np.intp, count=len(sources)
            )
            return cube[rows, table, 0].astype(np.uint64, copy=False)
        return np.fromiter(
            (self._routing_key(r, table) for r in requests),
            dtype=np.uint64,
            count=len(requests),
        )


class ConsistentHashPolicy(RoutingPolicy):
    """Hash the first key of ``routing_table`` onto the replica ring."""

    name = "hash"

    def __init__(self, num_replicas: int, routing_table: int = 0):
        super().__init__(num_replicas)
        if routing_table < 0:
            raise ConfigError("routing_table must be >= 0")
        self.routing_table = routing_table
        self._partitioner = HashPartitioner(num_replicas)

    def primary(self, request: Request, healthy: Sequence[int]) -> int:
        key = np.asarray(
            [self._routing_key(request, self.routing_table)],
            dtype=np.uint64,
        )
        return int(self._partitioner.owner_of(key)[0])

    def primary_many(
        self, requests: Sequence[Request]
    ) -> Optional[np.ndarray]:
        keys = self._routing_keys(requests, self.routing_table)
        return self._partitioner.owner_of(keys)


class TableShardPolicy(RoutingPolicy):
    """Fold keys into coarse shards, assign shards to replicas."""

    name = "table-shard"

    def __init__(
        self,
        num_replicas: int,
        num_shards: int = 64,
        routing_table: int = 0,
        assignment: Optional[Sequence[int]] = None,
    ):
        super().__init__(num_replicas)
        if num_shards < num_replicas:
            raise ConfigError("need at least one shard per replica")
        if routing_table < 0:
            raise ConfigError("routing_table must be >= 0")
        self.num_shards = num_shards
        self.routing_table = routing_table
        self._partitioner = TablePartitioner(
            num_replicas, num_shards, assignment=assignment
        )

    def primary(self, request: Request, healthy: Sequence[int]) -> int:
        shard = self._routing_key(request, self.routing_table) % self.num_shards
        return int(self._partitioner.owner_of_tables([shard])[0])

    def primary_many(
        self, requests: Sequence[Request]
    ) -> Optional[np.ndarray]:
        keys = self._routing_keys(requests, self.routing_table)
        shards = keys % np.uint64(self.num_shards)
        return self._partitioner.owner_of_tables(shards)


class LeastOutstandingPolicy(RoutingPolicy):
    """Dispatch to the routable replica with the fewest recent dispatches."""

    name = "least-outstanding"

    def __init__(self, num_replicas: int, service_window: float = 1e-3):
        super().__init__(num_replicas)
        if service_window <= 0:
            raise ConfigError("service_window must be positive")
        self.service_window = service_window
        self._dispatches: Dict[int, Deque[float]] = {
            r: deque() for r in range(num_replicas)
        }

    def _outstanding(self, replica: int, now: float) -> int:
        window = self._dispatches[replica]
        while window and window[0] <= now - self.service_window:
            window.popleft()
        return len(window)

    def primary(self, request: Request, healthy: Sequence[int]) -> int:
        candidates: List[int] = sorted(healthy) or list(
            range(self.num_replicas)
        )
        now = request.arrival_time
        return min(
            candidates, key=lambda r: (self._outstanding(r, now), r)
        )

    def note_dispatch(self, replica: int, at: float) -> None:
        self._dispatches[replica].append(at)


def make_policy(
    name: str, num_replicas: int, routing_table: int = 0
) -> RoutingPolicy:
    """Build a routing policy by CLI/benchmark name."""
    if name == "hash":
        return ConsistentHashPolicy(num_replicas, routing_table)
    if name == "table-shard":
        return TableShardPolicy(
            num_replicas,
            num_shards=max(64, num_replicas),
            routing_table=routing_table,
        )
    if name == "least-outstanding":
        return LeastOutstandingPolicy(num_replicas)
    raise ConfigError(
        f"unknown routing policy {name!r}; expected one of {POLICY_NAMES}"
    )


__all__ = [
    "POLICY_NAMES",
    "ConsistentHashPolicy",
    "LeastOutstandingPolicy",
    "RoutingPolicy",
    "TableShardPolicy",
    "make_policy",
]
