"""Graceful degradation when the remote tier is unavailable.

When a fetch exhausts its retry budget (or the breaker fails it fast),
the hierarchy still owes the model *some* vector for every key.  The
policy decides which:

* ``stale`` — serve the last authoritative value this node ever fetched
  (a :class:`~repro.tables.row_map.RowMap` kept outside the LRU so
  eviction does not erase it); keys never seen fall back to zeros.
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
from typing import Optional

import numpy as np

from ..errors import ConfigError, DegradedServiceError
from ..tables.row_map import RowMap

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


def degraded_vectors(
    config: DegradeConfig,
    stale: Optional[RowMap],
    keys: np.ndarray,
    dim: int,
) -> np.ndarray:
    """Apply the degradation policy to a batch's failed packed keys: the
    vectors to serve in their place.  Raises on the ``fail`` policy."""
    if config.policy == FAIL:
        raise DegradedServiceError(
            f"{len(keys)} keys undeliverable "
            "(remote unavailable) and degradation policy is 'fail'"
        )
    vectors = np.zeros((len(keys), dim), np.float32)
    if config.policy == STALE and stale is not None:
        stale.read_into(keys, vectors)
    return vectors
