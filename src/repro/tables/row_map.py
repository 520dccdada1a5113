"""A sparse last-write-wins map from ids to rows: the plain store's
refresh overlay (one per table, keyed by feature id) and the tiered
store's stale shadow (one per dimension, keyed by packed global key)."""

from __future__ import annotations

import numpy as np

#: Above every key: ends the id column, so a search for a key never runs
#: off its end.
_END = np.iinfo(np.int64).max


class RowMap:
    """Rows of ``dim`` float32 values keyed by non-negative int64 ids.

    Ids are sorted and ended by ``_END``; each id's slot indexes an
    append-only row array that grows by a quarter when full.  A write
    rewrites the ids it holds in place and merges only its new ids into
    the id and slot columns, so no row is copied again.  Id arguments are
    int64 or uint64 arrays, viewed as int64 (a packed key is searched as
    an integer, never as a float).
    """

    def __init__(self, dim: int):
        self._ids = np.array([_END], dtype=np.int64)
        self._slots = np.zeros(1, dtype=np.int64)
        self._rows = np.zeros((0, dim), dtype=np.float32)

    def __len__(self) -> int:
        return len(self._ids) - 1

    # hot-path: vectorized
    def write(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Store ``rows`` under ``ids``; an id given twice keeps its last
        row."""
        ids = ids.view(np.int64)
        if np.count_nonzero(ids[1:] <= ids[:-1]):  # keep each id's last row
            order = ids.argsort(kind="stable")
            order = order[np.append(ids[order[1:]] != ids[order[:-1]], True)]
            ids, rows = ids[order], rows[order]
        at = self._ids.searchsorted(ids)
        old = self._ids.take(at) == ids
        rewritten = np.count_nonzero(old)
        if rewritten:
            self._rows[self._slots.take(at[old])] = rows[old]
        if rewritten < len(ids):
            new = ~old
            start = len(self._ids) - 1
            end = start + len(ids) - rewritten
            if end > len(self._rows):  # grow the row array by 1/4
                grown = np.empty(
                    (max(end, start + start // 4), self._rows.shape[1]),
                    np.float32,
                )
                grown[:start] = self._rows[:start]
                self._rows = grown
            self._rows[start:end] = rows[new]
            # Two sorted runs: the stable sort merges them in one pass.
            merged = np.concatenate((self._ids, ids[new]))
            order = merged.argsort(kind="stable")
            self._ids = merged.take(order)
            self._slots = np.concatenate(
                (self._slots, np.arange(start, end))
            ).take(order)

    # hot-path: vectorized
    def read_into(self, ids: np.ndarray, out: np.ndarray) -> None:
        """Overwrite the rows of ``out`` whose id the map holds with its
        row; the others are left as they are."""
        if len(self._ids) > 1:
            ids = ids.view(np.int64)
            at = self._ids.searchsorted(ids)
            hit = self._ids.take(at) == ids
            out[hit] = self._rows.take(self._slots.take(at[hit]), axis=0)

    def items(self) -> tuple:
        """The map as ``(ids, rows)``, ids sorted, as uint64 (copies)."""
        return (
            self._ids[:-1].astype(np.uint64),
            self._rows.take(self._slots[:-1], axis=0),
        )
