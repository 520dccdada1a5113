"""Request traces: batched streams of (table, feature ID) lookups.

A :class:`TraceBatch` is one inference batch as the embedding layer sees
it: for each embedding table, the list of feature IDs its samples carry
(``ID_List_i`` in the paper's notation, §2.2).  A :class:`Trace` is the
sequence of batches an experiment replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True)
class TraceBatch:
    """One inference batch of sparse lookups.

    Attributes:
        ids_per_table: element ``i`` holds the feature IDs queried against
            table ``i`` for this batch (length = batch size x ids/field).
        batch_size: number of inference samples in the batch.
    """

    ids_per_table: Sequence[np.ndarray]
    batch_size: int

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise WorkloadError("batch_size must be positive")
        for i, ids in enumerate(self.ids_per_table):
            if ids.ndim != 1:
                raise WorkloadError(f"table {i}: ids must be one-dimensional")

    @property
    def num_tables(self) -> int:
        return len(self.ids_per_table)

    @property
    def total_ids(self) -> int:
        return sum(len(ids) for ids in self.ids_per_table)

    def flattened(self) -> "tuple[np.ndarray, np.ndarray]":
        """Return (table_ids, feature_ids) as two parallel flat arrays."""
        tables = np.concatenate(
            [
                np.full(len(ids), t, dtype=np.int64)
                for t, ids in enumerate(self.ids_per_table)
            ]
        ) if self.total_ids else np.zeros(0, np.int64)
        features = (
            np.concatenate([ids.astype(np.uint64) for ids in self.ids_per_table])
            if self.total_ids
            else np.zeros(0, np.uint64)
        )
        return tables, features


class Trace:
    """A replayable sequence of :class:`TraceBatch`."""

    def __init__(self, batches: List[TraceBatch], name: str = "trace"):
        if not batches:
            raise WorkloadError("a trace needs at least one batch")
        tables = {b.num_tables for b in batches}
        if len(tables) != 1:
            raise WorkloadError("all batches must cover the same table count")
        self.name = name
        self._batches = batches

    def __len__(self) -> int:
        return len(self._batches)

    def __iter__(self) -> Iterator[TraceBatch]:
        return iter(self._batches)

    def __getitem__(self, idx: int) -> TraceBatch:
        return self._batches[idx]

    @property
    def num_tables(self) -> int:
        return self._batches[0].num_tables

    @property
    def total_ids(self) -> int:
        return sum(b.total_ids for b in self._batches)

    def split(self, warmup_batches: int) -> "tuple[Trace, Trace]":
        """Split into (warmup, measurement) sections."""
        if not 0 < warmup_batches < len(self._batches):
            raise WorkloadError(
                f"warmup_batches must be in (0, {len(self._batches)})"
            )
        return (
            Trace(self._batches[:warmup_batches], f"{self.name}:warmup"),
            Trace(self._batches[warmup_batches:], f"{self.name}:measure"),
        )
