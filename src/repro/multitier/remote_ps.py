"""Remote parameter server: the bottom tier for giant models (paper §5).

Holds the authoritative copy of every embedding.  Lookups travel over the
datacenter network: one round trip per batched request plus streaming time
for the payload.  Vectors come from the same deterministic ground-truth
generator as the local store, so correctness stays verifiable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from ..faults.injector import FaultInjector
from ..faults.retry import (
    BreakerConfig,
    FetchOutcome,
    ResilientFetchClient,
    RetryPolicy,
)
from ..tables.embedding_table import reference_vectors
from ..tables.table_spec import TableSpec

US = 1e-6

#: Datacenter network between inference node and parameter servers: one
#: request/response round trip (kernel-bypass RDMA-ish), the usable
#: per-connection bandwidth, and the parameter-server nodes requests are
#: sharded over.  Faults come from a schedule (:mod:`repro.faults`), never
#: from here.
ROUND_TRIP = 25 * US
BANDWIDTH = 5e9
NUM_SHARDS = 4


def base_cost(payload_bytes: int) -> float:
    """Fault-free time to fetch ``payload_bytes`` in one request."""
    return ROUND_TRIP + payload_bytes / (BANDWIDTH * NUM_SHARDS)


@dataclass(frozen=True)
class RemoteFetchResult:
    """Vectors plus the network time their fetch cost."""

    vectors: np.ndarray
    network_time: float
    #: False when the resilient client exhausted its retry budget (or the
    #: breaker failed fast); the vectors must then not be trusted.
    success: bool


class RemoteParameterServer:
    """Authoritative remote store for all embedding tables.

    With ``injector=None`` (the default) every fetch costs its fault-free
    :func:`base_cost`.  Supplying a
    :class:`~repro.faults.injector.FaultInjector` switches the network
    path to the resilient client: schedule-driven faults, per-attempt
    timeouts, backoff, optional hedging, and per-shard circuit breakers
    (``retry_policy`` / ``breaker``; ``RetryPolicy.naive`` is the
    wait-out-the-timeout, retry-once client).  Each batched per-table
    request is routed to shard ``table_id % NUM_SHARDS``.
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
    ):
        if not specs:
            raise WorkloadError("remote PS needs at least one table")
        self.specs = list(specs)
        self.injector = injector
        self.client: Optional[ResilientFetchClient] = None
        if injector is not None:
            self.client = ResilientFetchClient(
                injector,
                retry_policy or RetryPolicy(),
                num_shards=NUM_SHARDS,
                breaker=breaker,
                seed=seed,
            )

    def timeline(self, table_id: int, n_keys: int, now: float) -> FetchOutcome:
        """The network side of fetching ``n_keys`` of one table at ``now``;
        the rows are the table's reference vectors.

        One batched request of ``n_keys * (value_bytes + 8)`` bytes.  Calls
        must come in request order: the resilient client's breaker windows
        and backoff RNG depend on it.
        """
        if not n_keys:
            return FetchOutcome(success=True, elapsed=0.0, attempts=0)
        cost = base_cost(n_keys * (self.specs[table_id].value_bytes + 8))
        if self.client is None:
            return FetchOutcome(success=True, elapsed=cost, attempts=1)
        return self.client.fetch(cost, table_id % NUM_SHARDS, now)

    def fetch(
        self, table_id: int, feature_ids: np.ndarray, now: float
    ) -> RemoteFetchResult:
        """Fetch one table's embeddings in a single batched request: the
        :meth:`timeline` of the request plus the reference rows.

        ``now`` is the simulated issue time; it only matters on the
        resilient path, where fault windows are time-driven.  Only tests
        call this: the tiered store charges :meth:`timeline` and makes
        its rows itself, so the ledger's ``multitier.remote.calls``,
        which traces this method, reads 0 on every workload.
        """
        spec = self.specs[table_id]
        feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
        if feature_ids.size and int(feature_ids.max()) >= spec.corpus_size:
            raise WorkloadError(
                f"table {table_id}: feature id beyond corpus size"
            )
        outcome = self.timeline(table_id, len(feature_ids), now)
        return RemoteFetchResult(
            vectors=reference_vectors(table_id, feature_ids, spec.dim),
            network_time=outcome.elapsed,
            success=outcome.success,
        )
