"""Request traces: batched streams of (table, feature ID) lookups.

A :class:`TraceBatch` is one inference batch as the embedding layer sees
it: for each embedding table, the list of feature IDs its samples carry
(``ID_List_i`` in the paper's notation, §2.2).  A :class:`Trace` is the
sequence of batches an experiment replays.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, List, Sequence

import numpy as np

from ..errors import WorkloadError


class TraceBatch:
    """One inference batch of sparse lookups.

    Held as flat columns, every table's ids in table order: ``tables``
    (``int64``) and ``features`` (``uint64``) name each key, ``sizes[t]``
    of them table ``t``'s, from ``offsets[t]`` on.  The cache path reads
    the columns; ``ids_per_table`` views them per table.

    Attributes:
        ids_per_table: element ``i`` holds the feature IDs queried against
            table ``i`` for this batch (length = batch size x ids/field).
        batch_size: number of inference samples in the batch.
    """

    __slots__ = ("batch_size", "tables", "features", "sizes", "offsets")

    def __init__(self, ids_per_table: Sequence[np.ndarray], batch_size: int):
        for i, ids in enumerate(ids_per_table):
            if ids.ndim != 1:
                raise WorkloadError(f"table {i}: ids must be one-dimensional")
        features = (
            np.concatenate([ids.astype(np.uint64) for ids in ids_per_table])
            if len(ids_per_table) else np.zeros(0, np.uint64)
        )
        self._set(features, [len(ids) for ids in ids_per_table], batch_size)

    @classmethod
    def from_columns(
        cls, features: np.ndarray, sizes: Sequence[int], batch_size: int
    ) -> "TraceBatch":
        """A batch over ``uint64`` ``features`` already in table order,
        ``sizes[t]`` ids of table ``t``."""
        batch = cls.__new__(cls)
        batch._set(features, sizes, batch_size)
        return batch

    def _set(self, features, sizes, batch_size) -> None:
        if batch_size <= 0:
            raise WorkloadError("batch_size must be positive")
        self.batch_size = batch_size
        self.features = features
        self.sizes = list(sizes)
        self.offsets = list(accumulate(self.sizes, initial=0))
        self.tables = np.arange(len(sizes), dtype=np.int64).repeat(sizes)

    @property
    def ids_per_table(self) -> List[np.ndarray]:
        bounds = self.offsets
        return [
            self.features[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    @property
    def num_tables(self) -> int:
        return len(self.sizes)

    @property
    def total_ids(self) -> int:
        return len(self.features)

    def flattened(self) -> "tuple[np.ndarray, np.ndarray]":
        """Return (table_ids, feature_ids) as two parallel flat arrays."""
        return self.tables, self.features


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
