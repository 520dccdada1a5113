"""Pluggable request-routing policies for the serving cluster.

A policy answers one question — *which replica owns each request of
this stream?* — given which replicas are routable at each arrival, in
one :meth:`RoutingPolicy.primary_many` call over the whole stream.
Failover and hedging are the router's job, not the policy's: when the
primary is unhealthy the router walks the replica ring itself, so every
policy stays a pure function of ``(requests, routable mask)`` plus, for
the load-aware policy, its own earlier choices.

Three policies ship, mirroring the partitioning primitives that
:mod:`repro.multigpu.partition` already provides:

Every policy routes on the request's first key of table 0.

``hash``
    Consistent hashing of the request's routing key through
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
    Load-aware: each request goes to the routable replica that this
    policy chose as primary the fewest times inside a trailing service
    window, ties broken by lowest replica id.  No cache affinity.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Sequence

import numpy as np

from ..errors import ConfigError
from ..multigpu.partition import HashPartitioner, TablePartitioner
from ..serving.arrivals import Request, request_columns

#: Policy names accepted by :func:`make_policy` and the benchmarks.
POLICY_NAMES = ("hash", "table-shard", "least-outstanding")

#: Trailing window (simulated seconds) over which ``least-outstanding``
#: counts each replica's primary choices.
SERVICE_WINDOW = 1e-3


class RoutingPolicy:
    """Base class: maps each request of a stream to its primary replica."""

    name = "base"

    def __init__(self, num_replicas: int):
        if num_replicas < 1:
            raise ConfigError("routing needs at least one replica")
        self.num_replicas = num_replicas

    def primary_many(
        self, requests: Sequence[Request], routable: np.ndarray
    ) -> np.ndarray:
        """Primaries for a whole arrival stream, as one int64 array.

        ``routable`` is the ``(num_replicas, len(requests))`` mask of
        the replicas the router may send each request to (all-True when
        failover is off).  The router plans the stream from these owners
        as arrays, faults or not.
        """
        raise NotImplementedError

    # hot-path: vectorized
    def _routing_keys(self, requests: Sequence[Request]) -> np.ndarray:
        """Routing keys of a whole stream as one uint64 array: each
        request's first id of table 0, one gather out of the stream's id
        cube.  Requests with empty id lists route by request id."""
        columns = request_columns(requests)
        cube = columns.cube
        if cube.shape[2] == 0:
            return columns.request_ids.astype(np.uint64)
        return cube[columns.rows, 0, 0].astype(np.uint64, copy=False)


class ConsistentHashPolicy(RoutingPolicy):
    """Hash the routing key onto the replica ring."""

    name = "hash"

    def __init__(self, num_replicas: int):
        super().__init__(num_replicas)
        self._partitioner = HashPartitioner(num_replicas)

    # hot-path: vectorized
    def primary_many(
        self, requests: Sequence[Request], routable: np.ndarray
    ) -> np.ndarray:
        keys = self._routing_keys(requests)
        return self._partitioner.owner_of(keys)


class TableShardPolicy(RoutingPolicy):
    """Fold keys into coarse shards, assign shards to replicas."""

    name = "table-shard"

    def __init__(self, num_replicas: int, num_shards: int = 64):
        super().__init__(num_replicas)
        if num_shards < num_replicas:
            raise ConfigError("need at least one shard per replica")
        self.num_shards = num_shards
        self._partitioner = TablePartitioner(num_replicas, num_shards)

    # hot-path: vectorized
    def primary_many(
        self, requests: Sequence[Request], routable: np.ndarray
    ) -> np.ndarray:
        keys = self._routing_keys(requests)
        shards = keys % np.uint64(self.num_shards)
        return self._partitioner.owner_of_tables(shards)


class LeastOutstandingPolicy(RoutingPolicy):
    """Send each request to the routable replica chosen as primary the
    fewest times inside the trailing :data:`SERVICE_WINDOW`."""

    name = "least-outstanding"

    def __init__(self, num_replicas: int):
        super().__init__(num_replicas)
        #: Per replica, the arrival instants of its recent primary choices.
        #: Kept across calls, so a stream sees the load its predecessor
        #: left inside the window.
        self._choices: List[Deque[float]] = [
            deque() for _ in range(num_replicas)
        ]

    def _outstanding(self, replica: int, now: float) -> int:
        window = self._choices[replica]
        while window and window[0] <= now - SERVICE_WINDOW:
            window.popleft()
        return len(window)

    # Not marked hot-path: each choice depends on the choices before it,
    # so this is one sequential walk over the stream.
    def primary_many(
        self, requests: Sequence[Request], routable: np.ndarray
    ) -> np.ndarray:
        everyone = range(self.num_replicas)
        owners = np.empty(len(requests), np.int64)
        for i, (request, mask) in enumerate(
            zip(requests, routable.T.tolist())
        ):
            now = request.arrival_time
            # With no routable replica, every replica is a candidate.
            candidates = [r for r in everyone if mask[r]] or everyone
            owner = min(
                candidates, key=lambda r: (self._outstanding(r, now), r)
            )
            self._choices[owner].append(now)
            owners[i] = owner
        return owners


def make_policy(name: str, num_replicas: int) -> RoutingPolicy:
    """Build a routing policy by its benchmark name."""
    if name == "hash":
        return ConsistentHashPolicy(num_replicas)
    if name == "table-shard":
        return TableShardPolicy(num_replicas, num_shards=max(64, num_replicas))
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
