"""Interleaves bounded refresh quanta into serving-idle GPU time.

Refresh traffic and inference share one GPU.  Fleche keeps replacement
off the query's critical path by decoupling copy and index kernels
(§3.3); the same discipline applies to model refreshes: update kernels
run in **idle slots** — the gaps the serving scheduler leaves between
batches — and each slot ingests a *bounded quantum* of keys, so a burst
of published updates can never blow the latency SLA.

:meth:`RefreshScheduler.run_idle` is the contract with the serving
loop: "the device is idle on ``[start, end)`` — use what fits".  The
scheduler estimates each pending batch's kernel cost on a scratch
simulated-hardware executor (memoised per batch shape), inflates it by
any active ``SlowSubscriber`` fault factor, and applies a batch only if
it completes before ``end``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.workflow import _copy_kernel_spec, _index_kernel_spec
from ..errors import ConfigError
from ..gpusim.executor import Executor
from ..gpusim.stats import Category
from .subscriber import UpdateSubscriber


class RefreshScheduler:
    """Feeds an :class:`UpdateSubscriber` from serving-idle device time.

    Args:
        subscriber: the replica's stream consumer.
        hw: simulated hardware the update kernels are costed on.
        quantum_keys: at most this many keys per idle slot — the
            staleness/SLA knob the benchmark sweeps.
        schedule: optional fault schedule for ``SlowSubscriber`` windows.
    """

    def __init__(
        self,
        subscriber: UpdateSubscriber,
        hw,
        quantum_keys: int = 512,
        schedule=None,
    ):
        if quantum_keys < 1:
            raise ConfigError("quantum_keys must be >= 1")
        self.subscriber = subscriber
        self.hw = hw
        self.quantum_keys = int(quantum_keys)
        self.schedule = schedule
        #: (num_keys, dim) -> kernel wall-clock on ``hw``.
        self._cost_memo: Dict[Tuple[int, int], float] = {}
        self.busy_time = 0.0
        self.quanta = 0
        self.batches_applied = 0
        self.keys_applied = 0

    # ---------------------------------------------------------------- costs

    def _segment_cost(self, num_keys: int, dim: int) -> float:
        """Wall-clock of one (copy + index) refresh of ``num_keys`` rows."""
        memo = self._cost_memo.get((num_keys, dim))
        if memo is not None:
            return memo
        scratch = Executor(self.hw)
        scratch.launch(
            _copy_kernel_spec("update_copy", num_keys, dim, self.hw),
            stream=scratch.stream("copy"),
            category=Category.OTHER,
        )
        scratch.launch(
            _index_kernel_spec("update_index", num_keys),
            stream=scratch.stream("main"),
            category=Category.OTHER,
        )
        cost = scratch.drain()
        self._cost_memo[(num_keys, dim)] = cost
        return cost

    def batch_cost(self, batch, now: float) -> float:
        """Estimated apply cost of ``batch`` at ``now`` (fault-inflated).

        Conservatively prices every key as cached (the worst case: each
        one costs a pool write plus an index re-stamp).
        """
        cost = sum(
            self._segment_cost(delta.num_keys, delta.dim)
            for delta in batch.deltas
            if delta.num_keys
        )
        factor = 1.0
        if self.schedule is not None:
            factor = self.schedule.subscriber_slow_factor(now)
        return cost * factor

    # ----------------------------------------------------------------- slots

    def run_idle(self, start: float, end: float) -> float:
        """Consume the idle slot ``[start, end)``; returns busy-until.

        Applies due batches while the quantum budget and the slot both
        allow; always refreshes the staleness gauges at the slot's close,
        so lag is visible even when nothing could be applied.
        """
        now = max(float(start), 0.0)
        end = float(end)
        budget = self.quantum_keys
        while budget > 0:
            try:
                batch = self.subscriber.next_batch(now)
            except Exception:
                self.subscriber.refresh_gauges(max(now, end))
                raise
            if batch is None or batch.num_keys > budget:
                break
            cost = self.batch_cost(batch, now)
            if now + cost > end:
                break
            self.subscriber.apply_next(now)
            now += cost
            budget -= batch.num_keys
            self.busy_time += cost
            self.quanta += 1
            self.batches_applied += 1
            self.keys_applied += batch.num_keys
            self.subscriber.obs.inc("refresh.quanta", 1)
        self.subscriber.refresh_gauges(max(now, end))
        return now


__all__ = ["RefreshScheduler"]
