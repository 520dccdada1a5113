"""The serving record: one columnar row per batch, which every observer reads.

:func:`~repro.serving.pipeline.serve_staged` builds a
:class:`ServingRecord` only when the server has an observer attached
(``server.observers``), appends one row per finished batch, closes it
after the loop and shows it to each observer (``observer.observe(record)``).
Windows and alerts (:mod:`~repro.obs.timeseries`), serving-level Chrome
spans (:mod:`~repro.obs.spans`) and sampled request traces
(:mod:`~repro.obs.reqtrace`) are functions of the record, so each batch
fact is captured once, with values the loop already computed.

A row holds, in completion order: the batch index, its request range
``[lo, hi)``, its seal (``formed_at``), dispatch and finish instants, its
stages (``(seq, stage, start, wait, elapsed, end)`` each: ``seq`` orders
stage executions across batches, ``elapsed`` is the batch executor's
running total), the coalesced-miss attribution of its query, and the
registry activity since the previous row: the counter delta and the
gauges that moved, by metric key.  ``tail`` is the activity between the
last batch and the close.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .registry import MetricKey, MetricsRegistry

#: One stage execution: ``(seq, stage, start, wait, elapsed, end)``.
StageRow = Tuple[int, str, float, float, float, float]


class ServingRecord:
    """One serving run, one row per finished batch."""

    def __init__(
        self,
        registry: MetricsRegistry,
        request_ids: np.ndarray,
        arrivals: np.ndarray,
        depth: int,
    ):
        self.registry = registry
        self.request_ids = request_ids
        self.arrivals = arrivals
        self.depth = depth
        self._counters, self._gauges = registry.state()
        #: Gauge levels and every counter or gauge key at run start.
        self.start_gauges = dict(self._gauges)
        self.start_keys = set(self._counters) | set(self._gauges)
        self.batch: List[int] = []
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.formed_at: List[float] = []
        self.dispatch: List[float] = []
        self.finish: List[float] = []
        self.stages: List[List[StageRow]] = []
        self.coalesced_keys: List[int] = []
        self.coalesce_sources: List[Dict[int, int]] = []
        #: Per row: counter deltas (keys first seen included, at 0) and
        #: the gauges that moved since the previous row.
        self.counters: List[Dict[MetricKey, float]] = []
        self.gauges: List[Dict[MetricKey, float]] = []
        #: ``(counter delta, gauges moved)`` from the last row to the close.
        self.tail = ({}, {})
        self.end = 0.0
        #: Request position -> row, built on the first :meth:`row_of`.
        self._row_at = None

    def __len__(self) -> int:
        return len(self.finish)

    # hot-path: vectorized
    def append(self, index, lo, hi, formed_at, dispatch, finish, stages,
               coalesced_keys, coalesce_sources) -> None:
        """One finished batch (the serving loop's one call per batch)."""
        self.batch.append(index)
        self.lo.append(lo)
        self.hi.append(hi)
        self.formed_at.append(formed_at)
        self.dispatch.append(dispatch)
        self.finish.append(finish)
        self.stages.append(stages)
        self.coalesced_keys.append(int(coalesced_keys))
        self.coalesce_sources.append(dict(coalesce_sources))
        counters, gauges = self._moved()
        self.counters.append(counters)
        self.gauges.append(gauges)

    def close(self, end: float) -> None:
        """Seal the run at ``end``: the activity since the last batch
        (retire sweeps, closing gauges) becomes :attr:`tail`."""
        self.end = end
        self.tail = self._moved()
        self._row_at = None

    def _moved(self):
        counters, gauges = self.registry.state()
        before, levels = self._counters, self._gauges
        delta = {
            key: value - before.get(key, 0)
            for key, value in counters.items()
            if key not in before or before[key] != value
        }
        moved = {
            key: value for key, value in gauges.items()
            if key not in levels or levels[key] != value
        }
        self._counters, self._gauges = counters, gauges
        return delta, moved

    # ------------------------------------------------------------ reading

    # hot-path: vectorized
    def latencies(self) -> np.ndarray:
        """Per-request latency in request order: each batch's finish
        minus its requests' arrivals (the loop's own float op)."""
        order = np.argsort(np.asarray(self.lo, dtype=np.int64), kind="stable")
        sizes = np.asarray(self.hi, dtype=np.int64) - np.asarray(
            self.lo, dtype=np.int64
        )
        finish = np.asarray(self.finish, dtype=np.float64)
        return np.repeat(finish[order], sizes[order]) - self.arrivals

    def row_of(self, position: int) -> int:
        """The row of the batch that served request ``position``."""
        if self._row_at is None:
            lo = np.asarray(self.lo, dtype=np.int64)
            order = np.argsort(lo, kind="stable")
            self._row_at = np.repeat(
                order, np.asarray(self.hi, dtype=np.int64)[order] - lo[order]
            )
        return int(self._row_at[position])


class RecordLog:
    """An observer that keeps every record it is shown, in run order."""

    def __init__(self):
        self.records: List[ServingRecord] = []

    def observe(self, record: ServingRecord) -> None:
        self.records.append(record)
