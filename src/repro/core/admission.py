"""Probability-based admission filter + frequency estimation (paper §3.1).

To reduce the flat cache's swap-in/swap-out overhead for rarely occurring
IDs, each missing embedding is admitted with probability ``p``; in
expectation, features seen fewer than ``1/p`` times bypass the cache
(the trick of McMahan et al., KDD'13).

For mixed-precision tiering the filter additionally carries a
:class:`FrequencyEstimator` — a count-min sketch over observed flat keys
— and maps its estimates onto precision tiers (hot → fp32, warm → fp16,
tail → int8).  The sketch never *under*-estimates a key's count (the
classic CMS guarantee, absent aging), so a genuinely hot key can never be
banished to the int8 tail by estimation error.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError

#: Count-min sketch geometry of the frequency estimator.
SKETCH_WIDTH = 2048
SKETCH_DEPTH = 2

#: Estimated count at or above which a key gets the fp32 tier.
HOT_MIN_COUNT = 8
#: Count at or above which a key is at least fp16; below it, int8.
#: A cache's ``admission.hot_min_count`` / ``warm_min_count`` hold the
#: live values (tests move them).
WARM_MIN_COUNT = 2

_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64-style finalizer (vectorised) for sketch row hashing."""
    x = x.astype(np.uint64)
    x ^= x >> np.uint64(33)
    x *= _MIX1
    x ^= x >> np.uint64(33)
    x *= _MIX2
    x ^= x >> np.uint64(33)
    return x


class FrequencyEstimator:
    """Count-min sketch over flat keys (vectorised, deterministic).

    ``observe`` folds a key batch in (typically the deduplicated keys of
    one serving batch, so counts approximate "batches containing the
    key"); ``estimate`` returns the row-wise minimum — an upper bound on
    the true count.  ``age`` halves every counter, letting estimates
    track a drifting hotspot (and enabling tier demotion).
    """

    def __init__(self, seed: int = 0):
        self.width, self.depth = SKETCH_WIDTH, SKETCH_DEPTH
        self._counts = np.zeros((self.depth, self.width), dtype=np.int64)
        # One salt per row, derived from the seed so replicas with the
        # same config build identical sketches.
        self._salts = _mix64(
            np.uint64(seed) + np.arange(1, self.depth + 1, dtype=np.uint64)
        )

    # hot-path: vectorized
    def observe(self, keys: np.ndarray) -> None:
        """Fold one key batch into the sketch (+1 per key per row)."""
        if len(keys) == 0:
            return
        keys = np.asarray(keys, dtype=np.uint64)
        for r in range(self.depth):  # lint: allow-loop (per sketch row, depth-bounded)
            idx = _mix64(keys ^ self._salts[r]) % np.uint64(self.width)
            np.add.at(self._counts[r], idx.astype(np.int64), 1)

    # hot-path: vectorized
    def estimate(self, keys: np.ndarray) -> np.ndarray:
        """Estimated occurrence count per key (never under the truth)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.zeros(0, dtype=np.int64)
        counts = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
        for r in range(self.depth):  # lint: allow-loop (per sketch row, depth-bounded)
            idx = _mix64(keys ^ self._salts[r]) % np.uint64(self.width)
            np.minimum(counts, self._counts[r][idx.astype(np.int64)], out=counts)
        return counts

    def age(self) -> None:
        """Halve every counter (periodic exponential decay)."""
        self._counts >>= 1


def assign_tier_codes(
    counts: np.ndarray, hot_min_count: int, warm_min_count: int
) -> np.ndarray:
    """Map frequency estimates to tier codes (0=fp32, 1=fp16, 2=int8)."""
    codes = np.full(len(counts), 2, dtype=np.int8)
    codes[counts >= warm_min_count] = 1
    codes[counts >= hot_min_count] = 0
    return codes


class AdmissionFilter:
    """Bernoulli admission filter over missing keys.

    With an attached estimator (a mixed-precision or frequency-evicting
    cache) the filter also answers "which precision tier should this key
    get?" — the tier assignment the tentpole derives from admission-time
    frequency estimates.
    """

    def __init__(
        self,
        probability: float = 1.0,
        seed: int = 0,
        estimator: Optional[FrequencyEstimator] = None,
    ):
        if not 0.0 < probability <= 1.0:
            raise ConfigError("admission probability must be in (0, 1]")
        self.probability = probability
        self._rng = np.random.default_rng(seed)
        self.estimator = estimator
        self.hot_min_count = HOT_MIN_COUNT
        self.warm_min_count = WARM_MIN_COUNT

    def admit(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of keys admitted to the cache."""
        n = len(keys)
        if self.probability >= 1.0:
            admitted = np.empty(n, dtype=bool)
            admitted.fill(True)
            return admitted
        return self._rng.random(n) < self.probability

    def observe(self, keys: np.ndarray) -> None:
        """Feed one batch's (deduplicated) keys to the estimator, if any."""
        if self.estimator is not None:
            self.estimator.observe(keys)

    def tier_codes(self, keys: np.ndarray) -> np.ndarray:
        """Per-key precision tier codes from the frequency estimates."""
        return assign_tier_codes(
            self.estimator.estimate(keys),
            self.hot_min_count,
            self.warm_min_count,
        )
