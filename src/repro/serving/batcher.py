"""Dynamic batch formation.

The standard inference-server policy: accumulate requests until either the
maximum batch size is reached or the oldest queued request has waited the
batching timeout.  Bigger batches amortise per-batch overheads (exactly
the kernel-maintenance costs the paper studies) at the price of queueing
delay — the knob every serving stack tunes against its SLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from .arrivals import Request


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


@dataclass(frozen=True)
class FormedBatch:
    """One batch handed to the engine."""

    requests: tuple
    #: Instant the batch was sealed (dispatch cannot start earlier).
    formed_at: float

    @property
    def size(self) -> int:
        return len(self.requests)


# hot-path: vectorized
def form_batches(
    requests: Sequence[Request], policy: BatchingPolicy
) -> List[FormedBatch]:
    """Group an arrival-ordered request stream into batches.

    A batch seals when it holds ``max_batch_size`` requests, or when the
    next arrival would make its oldest member exceed ``max_delay`` of
    waiting (the batch then seals at exactly ``oldest + max_delay``).
    """
    batches: List[FormedBatch] = []
    n = len(requests)
    if n == 0:
        return batches
    requests = list(requests)
    times = np.fromiter(
        (r.arrival_time for r in requests), dtype=np.float64, count=n
    )
    # One iteration per *batch*: a batch starting at ``start`` seals at
    # the earlier of (a) the request filling it to max size — sealed at
    # that request's arrival — or (b) the first later arrival strictly
    # past ``times[start] + max_delay`` — sealed at the deadline itself.
    # The stream is arrival-ordered, so (b) is a single searchsorted.
    if n > 1 and not bool((times[1:] >= times[:-1]).all()):
        return _form_batches_unsorted(requests, policy)
    start = 0
    while start < n:  # lint: allow-loop (per formed batch)
        deadline = times[start] + policy.max_delay
        stop = int(np.searchsorted(times, deadline, side="right"))
        if stop - start >= policy.max_batch_size:
            stop = start + policy.max_batch_size
            formed_at = float(times[stop - 1])
        else:
            formed_at = float(deadline)
        batches.append(FormedBatch(tuple(requests[start:stop]), formed_at))
        start = stop
    return batches


def _form_batches_unsorted(
    requests: Sequence[Request], policy: BatchingPolicy
) -> List[FormedBatch]:
    """Reference per-request scan, kept for out-of-order streams."""
    batches: List[FormedBatch] = []
    pending: List[Request] = []
    for request in requests:
        if pending:
            deadline = pending[0].arrival_time + policy.max_delay
            if request.arrival_time > deadline:
                batches.append(FormedBatch(tuple(pending), deadline))
                pending = []
        pending.append(request)
        if len(pending) >= policy.max_batch_size:
            batches.append(
                FormedBatch(tuple(pending), request.arrival_time)
            )
            pending = []
    if pending:
        batches.append(
            FormedBatch(
                tuple(pending), pending[0].arrival_time + policy.max_delay
            )
        )
    return batches
