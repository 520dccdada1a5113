"""Epoch-based space reclamation.

Fleche's eviction pass marks embeddings as logically deleted and delays the
physical reuse of their pool slots until a *grace period* in which no reader
can still hold a reference (paper §3.1, citing Fraser's epoch scheme).  The
decoupled copy kernel likewise relies on this: it reads pool slots without
locks because a slot freed during its execution cannot be reused until the
epoch advances past every in-flight reader (§3.3).

The reclaimer tracks a global epoch, the set of epochs pinned by in-flight
readers, and per-epoch retire lists.  ``collect`` hands back every location
whose retire epoch is strictly older than the oldest pinned epoch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

import numpy as np

from ..errors import SimulationError


class EpochReclaimer:
    """Grace-period tracking for deferred slot reuse."""

    def __init__(self):
        self._epoch = 0
        self._pins: Dict[int, int] = {}  # epoch -> reader count
        self._retired: "OrderedDict[int, List[np.ndarray]]" = OrderedDict()

    def advance(self) -> int:
        """Move to the next global epoch (typically once per batch)."""
        self._epoch += 1
        return self._epoch

    # ------------------------------------------------------------------ readers

    def pin(self) -> int:
        """A reader enters; returns the epoch it must later :meth:`unpin`."""
        self._pins[self._epoch] = self._pins.get(self._epoch, 0) + 1
        return self._epoch

    def unpin(self, epoch: int) -> None:
        """A reader that pinned ``epoch`` leaves."""
        count = self._pins.get(epoch, 0)
        if count <= 0:
            raise SimulationError(f"unpin of epoch {epoch} with no pinned reader")
        if count == 1:
            del self._pins[epoch]
        else:
            self._pins[epoch] = count - 1

    # ------------------------------------------------------------------ retire

    def retire(self, locations: np.ndarray) -> None:
        """Mark ``locations`` logically deleted in the current epoch."""
        if len(locations) == 0:
            return
        bucket = self._retired.setdefault(self._epoch, [])
        bucket.append(np.asarray(locations, dtype=np.uint64).copy())

    @property
    def pending(self) -> int:
        """Number of locations retired but not yet reclaimable."""
        return sum(len(a) for chunk in self._retired.values() for a in chunk)

    def collect(self) -> np.ndarray:
        """Return every location whose grace period has elapsed.

        A retire list from epoch ``e`` is safe once no reader pins an epoch
        ``<= e``; with readers pinning the then-current epoch, that means
        ``e < min(pinned)`` (or any ``e < current`` when nothing is pinned).
        """
        horizon = min(self._pins) if self._pins else self._epoch
        ready: List[np.ndarray] = []
        for epoch in list(self._retired):
            if epoch < horizon:
                ready.extend(self._retired.pop(epoch))
        if not ready:
            return np.zeros(0, dtype=np.uint64)
        return np.concatenate(ready)
