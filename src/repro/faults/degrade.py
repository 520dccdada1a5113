"""Graceful degradation when the remote tier is unavailable.

When a fetch exhausts its retry budget (or the breaker fails it fast),
the hierarchy still owes the model *some* vector for every key.  The
policy decides which:

* ``stale`` — serve the last authoritative value this node ever fetched
  (a shadow copy kept outside the LRU so eviction does not erase it);
  keys never seen fall back to the default vector.
* ``default-vector`` — serve zeros, the classic "missing embedding"
  fallback.
* ``fail`` — raise :class:`~repro.errors.DegradedServiceError`; for
  deployments where a wrong score is worse than no score.

The tiered store counts the keys it degrades in ``tier.degraded_keys``
and reports each query's count in its answer
(``StoreQueryResult.degraded_keys``), which is how the serving loop
tells a degraded batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigError, DegradedServiceError

STALE = "stale"
DEFAULT_VECTOR = "default-vector"
FAIL = "fail"
_POLICIES = (STALE, DEFAULT_VECTOR, FAIL)


@dataclass(frozen=True)
class DegradeConfig:
    """What to serve when the remote tier cannot answer in time."""

    policy: str = STALE

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ConfigError(
                f"degrade policy must be one of {_POLICIES}, "
                f"got {self.policy!r}"
            )


class StaleStore:
    """Shadow of the last authoritative value fetched per key.

    Kept separate from the DRAM LRU so that eviction (a capacity
    decision) does not destroy the fallback (a resilience decision).
    Keyed by ``(table, id)``, so the corpus bounds it.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], np.ndarray] = {}

    def update_many(
        self, table_ids: np.ndarray, feature_ids: np.ndarray,
        vectors: np.ndarray,
    ) -> None:
        """Record authoritative ``vectors`` for ``(table, id)`` pairs.

        One copy of the block; each key keeps a view of its row.
        """
        rows = np.array(vectors, dtype=np.float32)
        self._entries.update(
            zip(zip(table_ids.tolist(), feature_ids.tolist()), rows)
        )

    def get(
        self, table_id: int, feature_ids: np.ndarray, dim: int
    ) -> np.ndarray:
        """Best-effort vectors: each key's stale copy, zeros for keys
        without one."""
        vectors = np.zeros((len(feature_ids), dim), np.float32)
        for i, fid in enumerate(feature_ids):
            row = self._entries.get((table_id, int(fid)))
            if row is not None:
                vectors[i] = row
        return vectors


def degraded_vectors(
    config: DegradeConfig,
    stale: Optional[StaleStore],
    table_id: int,
    feature_ids: np.ndarray,
    dim: int,
) -> np.ndarray:
    """Apply the degradation policy to one failed fetch: the vectors to
    serve in its place.  Raises on the ``fail`` policy."""
    if config.policy == FAIL:
        raise DegradedServiceError(
            f"table {table_id}: {len(feature_ids)} keys undeliverable "
            "(remote unavailable) and degradation policy is 'fail'"
        )
    if config.policy == STALE and stale is not None:
        return stale.get(table_id, feature_ids, dim)
    return np.zeros((len(feature_ids), dim), np.float32)
