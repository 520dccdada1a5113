"""Deduplicating and restoring (paper §4).

Batches carry many duplicate IDs across samples; Fleche deduplicates all
flat keys before querying and restores the full output matrix afterwards.
Deduplication also guarantees at most one outstanding GPU-side writer per
key, which is what lets the per-slot timestamp double as a concurrency
version (§3.1).

The real work happens in numpy; :func:`dedup_kernel_spec` and
:func:`restore_kernel_spec` describe the equivalent device kernels (a
radix-sort-based unique and a gather) so the workflow can charge their
time to the "Other" category the paper's Figure 16 reports.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..gpusim.kernel import KernelSpec, coalesced_bytes


class DedupResult(NamedTuple):
    """Deduplicated view of a key batch."""

    #: the distinct keys, ascending.
    unique_keys: np.ndarray
    #: position in the batch of each unique key's first occurrence.
    first: np.ndarray
    #: index into ``unique_keys`` for every original position.
    inverse: np.ndarray


# hot-path: vectorized
def deduplicate(keys: np.ndarray) -> DedupResult:
    """Collapse duplicate keys, remembering how to restore the batch.

    One stable sort yields all three arrays, equal to what
    ``np.unique(keys, return_index=True, return_inverse=True)`` returns
    (the stable order makes ``first`` the earliest occurrence).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = head.cumsum() - 1
    return DedupResult(ordered[head], order[head], inverse)


def restore(unique_rows: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Expand per-unique-key rows back to the full batch order."""
    return unique_rows[inverse]


def dedup_kernel_spec(num_keys: int) -> KernelSpec:
    """Device cost of deduplicating ``num_keys`` (radix sort + compaction).

    A radix sort makes a small constant number of full passes over the key
    array; we count 4 passes of read+write over 8-byte keys.
    """
    passes = 4
    bytes_moved = passes * 2 * 8 * num_keys
    return KernelSpec(
        name="dedup",
        threads=max(num_keys, 1),
        stream_bytes=bytes_moved,
    )


def restore_kernel_spec(
    num_rows: int,
    dim: int,
    unique_rows: int = None,
) -> KernelSpec:
    """Device cost of scattering unique rows back to the full output.

    Reads the deduplicated row matrix once and writes the full output
    matrix (``num_rows`` rows, duplicates included), in 128-byte
    transactions.
    """
    row_bytes = coalesced_bytes(dim * 4, 128)
    if unique_rows is None:
        unique_rows = num_rows
    return KernelSpec(
        name="restore",
        threads=max(num_rows, 1) * min(dim, 32),
        stream_bytes=row_bytes * (num_rows + unique_rows),
    )
