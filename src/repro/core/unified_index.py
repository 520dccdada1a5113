"""Unified index: GPU-side pointers into the CPU-DRAM layer (paper §3.3).

Fleche opportunistically records the DRAM locations of selected cold
embeddings inside the flat cache's index, tagging the pointer's least
significant bit.  A miss whose entry carries a DRAM pointer skips the slow
host-side hash indexing entirely — the embedding still travels over PCIe,
but the random DRAM probe chain is replaced by the GPU's parallel lookup.

The pointer tagging scheme here follows the paper exactly: payloads are
shifted left one bit, and the LSB distinguishes cache locations (0) from
DRAM pointers (1).

:class:`UnifiedIndexTuner` implements the paper's empirical capacity rule:
grow the unified index while performance improves, stop at the peak, and
reset when a significant decline signals a workload change.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..hashindex.slab_hash import KIND_BIT

#: The tag bit is the index's payload-kind bit: untagged locations are
#: its ``CACHE_KIND``, tagged pointers its ``DRAM_KIND``, one recency
#: queue each.
_TAG_BIT = KIND_BIT

#: Batch latencies the tuner averages into one window (smooths batch
#: noise and the cache-warmup transient).
TUNER_WINDOW = 4
#: A window this fraction worse than the best one seen is a workload
#: change: the tuner clears the index and restarts.
REGRESSION_TOLERANCE = 0.25


def tag_cache_location(locations: np.ndarray) -> np.ndarray:
    """Encode memory-pool locations as untagged pointers (LSB = 0)."""
    return np.asarray(locations, dtype=np.uint64) << np.uint64(1)


def tag_dram_pointer(rows: np.ndarray) -> np.ndarray:
    """Encode DRAM rows as tagged pointers (LSB = 1)."""
    return (np.asarray(rows, dtype=np.uint64) << np.uint64(1)) | _TAG_BIT


def is_dram_pointer(pointers: np.ndarray) -> np.ndarray:
    """Boolean mask: which pointers reference the CPU-DRAM layer."""
    return (np.asarray(pointers, dtype=np.uint64) & _TAG_BIT).astype(bool)


def untag(pointers: np.ndarray) -> np.ndarray:
    """Strip the tag bit, recovering the raw location / row value."""
    return np.asarray(pointers, dtype=np.uint64) >> np.uint64(1)


@dataclass(frozen=True)
class TunerDecision:
    """One step of the capacity auto-tuner."""

    capacity: int
    action: str  # "grow", "hold", or "reset"


#: ``TunerDecision`` by value: a tuner holds its capacity for most
#: batches, so a repeated decision builds no new object.
_decision = functools.lru_cache(maxsize=1024)(TunerDecision)


class UnifiedIndexTuner:
    """Empirical capacity tuner for the unified index (paper §3.3).

    The paper's rule — grow from empty while performance improves, pause at
    the peak, reset on a significant decline — implemented as a *windowed
    hill climber*: latencies are averaged over a window (smoothing batch
    noise and the cache-warmup transient), and each window the capacity
    takes one step in the current direction, reversing when the step made
    things worse.  Capacity therefore keeps tracking the optimum — near
    zero when pointers do not pay for themselves on the workload, near the
    maximum when DRAM indexing dominates.  A drastic regression against the
    best window seen (workload change) clears the index and restarts.
    """

    def __init__(self, max_capacity: int):
        if max_capacity < 0:
            raise ConfigError("max_capacity must be >= 0")
        self.max_capacity = max_capacity
        #: Capacity moved per window: an eighth of the maximum.
        self.step = max(1, max_capacity // 8)
        self.capacity = 0
        self._direction = 1
        self._pending: list = []
        self._last_window: Optional[float] = None
        self._best_window: Optional[float] = None

    def _reset_search(self) -> TunerDecision:
        self.capacity = 0
        self._direction = 1
        self._pending.clear()
        self._last_window = None
        self._best_window = None
        return TunerDecision(self.capacity, "reset")

    def observe(self, batch_latency: float) -> TunerDecision:
        """Feed one measured batch latency; returns the new capacity."""
        self._pending.append(batch_latency)
        if len(self._pending) < TUNER_WINDOW:
            return _decision(self.capacity, "hold")

        mean = sum(self._pending) / len(self._pending)
        self._pending.clear()

        if (
            self._best_window is not None
            and mean > self._best_window * (1.0 + REGRESSION_TOLERANCE)
        ):
            return self._reset_search()  # workload changed

        if self._best_window is None or mean < self._best_window:
            self._best_window = mean

        action = "grow" if self._direction > 0 else "shrink"
        if self._last_window is not None and mean > self._last_window:
            # Last step hurt: walk back the other way.
            self._direction = -self._direction
            action = "backoff"
        self._last_window = mean

        proposed = self.capacity + self._direction * self.step
        if proposed < 0 or proposed > self.max_capacity:
            self._direction = -self._direction
            proposed = self.capacity + self._direction * self.step
            proposed = min(max(proposed, 0), self.max_capacity)
        self.capacity = proposed
        return TunerDecision(self.capacity, action)
