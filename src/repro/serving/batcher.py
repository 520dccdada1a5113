"""Dynamic batch formation.

The standard inference-server policy: accumulate requests until either the
maximum batch size is reached or the oldest queued request has waited the
batching timeout.  Bigger batches amortise per-batch overheads (exactly
the kernel-maintenance costs the paper studies) at the price of queueing
delay — the knob every serving stack tunes against its SLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class BatchingPolicy:
    """Max-size / max-delay batching."""

    max_batch_size: int = 256
    #: Longest a request may wait for companions before the batch closes.
    max_delay: float = 2e-3

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigError("max_batch_size must be positive")
        if self.max_delay < 0:
            raise ConfigError("max_delay must be >= 0")


# hot-path: vectorized
def batch_bounds(
    times: np.ndarray, policy: BatchingPolicy
) -> Tuple[List[int], List[float]]:
    """Group an arrival-ordered stream into batches: each batch's end
    offset into the stream (batches partition it contiguously, in order)
    and the instant it seals.

    A batch seals when it holds ``max_batch_size`` requests, or when the
    next arrival would make its oldest member exceed ``max_delay`` of
    waiting (the batch then seals at exactly ``oldest + max_delay``).
    """
    n = len(times)
    stops: List[int] = []
    formed: List[float] = []
    # One iteration per *batch*: a batch starting at ``start`` seals at
    # the earlier of (a) the request filling it to max size — sealed at
    # that request's arrival — or (b) the first later arrival strictly
    # past ``times[start] + max_delay`` — sealed at the deadline itself.
    # The stream is arrival-ordered, so (b) is a single searchsorted.
    if n > 1 and not bool((times[1:] >= times[:-1]).all()):
        return _bounds_unsorted(times.tolist(), policy)
    start = 0
    while start < n:  # lint: allow-loop (per formed batch)
        deadline = times[start] + policy.max_delay
        stop = int(times.searchsorted(deadline, side="right"))
        if stop - start >= policy.max_batch_size:
            stop = start + policy.max_batch_size
            formed.append(float(times[stop - 1]))
        else:
            formed.append(float(deadline))
        stops.append(stop)
        start = stop
    return stops, formed


def _bounds_unsorted(
    times: List[float], policy: BatchingPolicy
) -> Tuple[List[int], List[float]]:
    """Reference per-request scan, kept for out-of-order streams."""
    stops: List[int] = []
    formed: List[float] = []
    first = 0  # offset of the oldest pending request
    for i, now in enumerate(times):
        if i > first:
            deadline = times[first] + policy.max_delay
            if now > deadline:
                stops.append(i)
                formed.append(deadline)
                first = i
        if i + 1 - first >= policy.max_batch_size:
            stops.append(i + 1)
            formed.append(now)
            first = i + 1
    if first < len(times):
        stops.append(len(times))
        formed.append(times[first] + policy.max_delay)
    return stops, formed
