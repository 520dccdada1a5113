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


@dataclass(frozen=True)
class NetworkSpec:
    """Datacenter network between inference node and parameter servers.

    Failure injection: with probability ``slow_probability`` a request
    lands on a degraded path (congestion, a slow replica) and takes
    ``slow_factor`` times longer; with probability ``timeout_probability``
    it times out entirely after ``timeout`` and is retried (one retry is
    always assumed to succeed — persistent failures are a different
    study).  Both default to off, keeping the happy path deterministic.
    """

    #: One request/response round trip (kernel bypass RDMA-ish).
    round_trip: float = 25 * US
    #: Usable per-connection bandwidth.
    bandwidth: float = 5e9
    #: Requests are sharded over this many parameter-server nodes.
    num_shards: int = 4
    #: Probability a request hits a degraded path.
    slow_probability: float = 0.0
    #: Latency multiplier on the degraded path.
    slow_factor: float = 10.0
    #: Probability a request times out and retries once.
    timeout_probability: float = 0.0
    #: Client-side timeout before the retry fires.
    timeout: float = 1000 * US

    def __post_init__(self) -> None:
        if not 0.0 <= self.slow_probability <= 1.0:
            raise WorkloadError("slow_probability must be in [0, 1]")
        if not 0.0 <= self.timeout_probability <= 1.0:
            raise WorkloadError("timeout_probability must be in [0, 1]")
        if self.slow_factor < 1.0:
            raise WorkloadError("slow_factor must be >= 1")
        if self.timeout <= 0:
            raise WorkloadError("timeout must be positive")

    def base_cost(self, payload_bytes: int) -> float:
        """Fault-free time to fetch ``payload_bytes`` in one request."""
        if payload_bytes < 0:
            raise WorkloadError("negative payload")
        streaming = payload_bytes / (self.bandwidth * self.num_shards)
        return self.round_trip + streaming

    def fetch_cost(
        self,
        payload_bytes: int,
        rng: Optional["np.random.Generator"] = None,
    ) -> float:
        """Time to fetch ``payload_bytes`` with one batched request."""
        base = self.base_cost(payload_bytes)
        if rng is None or (
            self.slow_probability == 0.0 and self.timeout_probability == 0.0
        ):
            return base
        roll = rng.random()
        if roll < self.timeout_probability:
            return self.timeout + base  # wait out the timeout, retry wins
        if roll < self.timeout_probability + self.slow_probability:
            return base * self.slow_factor
        return base


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

    With ``injector=None`` (the default) fetch timing follows the seed's
    ``NetworkSpec`` model exactly.  Supplying a
    :class:`~repro.faults.injector.FaultInjector` switches the network
    path to the resilient client: schedule-driven faults, per-attempt
    timeouts, backoff, optional hedging, and per-shard circuit breakers
    (``retry_policy`` / ``breaker``).  Each batched per-table request is
    routed to shard ``table_id % num_shards``.
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        network: Optional[NetworkSpec] = None,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
    ):
        if not specs:
            raise WorkloadError("remote PS needs at least one table")
        self.specs = list(specs)
        self.network = network or NetworkSpec()
        self._rng = np.random.default_rng(seed)
        self.injector = injector
        self.client: Optional[ResilientFetchClient] = None
        if injector is not None:
            self.client = ResilientFetchClient(
                injector,
                retry_policy or RetryPolicy(),
                num_shards=self.network.num_shards,
                breaker=breaker,
                seed=seed,
            )

    def shard_for(self, table_id: int) -> int:
        """The PS shard serving ``table_id``'s batched requests."""
        return table_id % self.network.num_shards

    def timeline(self, table_id: int, n_keys: int, now: float) -> FetchOutcome:
        """The network side of fetching ``n_keys`` of one table at ``now``;
        the rows are the table's reference vectors.

        One batched request of ``n_keys * (value_bytes + 8)`` bytes.  Calls
        must come in request order: the seed model's jitter draws and the
        resilient client's breaker windows and backoff RNG depend on it.
        """
        if not n_keys:
            return FetchOutcome(success=True, elapsed=0.0, attempts=0)
        payload = n_keys * (self.specs[table_id].value_bytes + 8)
        if self.client is None:
            return FetchOutcome(
                success=True,
                elapsed=self.network.fetch_cost(payload, rng=self._rng),
                attempts=1,
            )
        return self.client.fetch(
            self.network.base_cost(payload), self.shard_for(table_id), now
        )

    def fetch(
        self, table_id: int, feature_ids: np.ndarray, now: float
    ) -> RemoteFetchResult:
        """Fetch one table's embeddings in a single batched request: the
        :meth:`timeline` of the request plus the reference rows.

        ``now`` is the simulated issue time; it only matters on the
        resilient path, where fault windows are time-driven.
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
