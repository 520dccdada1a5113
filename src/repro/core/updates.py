"""Parameter-update propagation: cache coherence with model refreshes.

Production recommendation models are continuously retrained; refreshed
embeddings stream into the serving fleet while inference keeps running.
A GPU-resident cache must not keep serving stale vectors.  The paper's
machinery already contains the needed primitive — each index slot's
timestamp "also acts as a version number to detect concurrent read-write
conflicts" (§3.1) — and its deduplicating guarantees one writer per key.

:class:`UpdateApplier` builds on that:

* updates arrive as (table, feature_id, vector) batches from the trainer;
  a log batch's per-table deltas are applied in one fused pass per
  embedding dimension (:meth:`UpdateApplier.apply_deltas`);
* duplicate IDs within a batch resolve **last-write-wins**: only the final
  row of each ID is applied, earlier ones are counted as ``duplicates``;
* cached keys are *refreshed in place* (write the pool slot, bump the
  version stamp) — one copying kernel plus one indexing kernel, the same
  decoupled shape as replacement (§3.3);
* unified-index DRAM pointers for updated keys are invalidated, since the
  update also relocated the host copy (so ``pointers_skipped``, the
  pointers left in place, is 0);
* uncached keys cost nothing (the cache simply doesn't know them).

The outcome partitions the batch exactly:
``len(feature_ids) == refreshed + pointers_invalidated + pointers_skipped
+ untracked + duplicates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from .dedup import deduplicate
from .flat_cache import FlatCache
from .unified_index import is_dram_pointer, untag


@dataclass(frozen=True)
class UpdateOutcome:
    """What one update batch did to the cache.

    The five counters partition the input batch: every input row is
    exactly one of refreshed (rewritten in place on the GPU), pointer
    invalidated / skipped (key lived behind a unified-index DRAM
    pointer), untracked (cache never heard of it), or a duplicate
    squashed by a later row for the same ID.
    """

    refreshed: int
    pointers_invalidated: int
    untracked: int
    duplicates: int = 0
    pointers_skipped: int = 0

    @property
    def total(self) -> int:
        return (
            self.refreshed
            + self.pointers_invalidated
            + self.pointers_skipped
            + self.untracked
            + self.duplicates
        )


def _last_occurrence_mask(feature_ids: np.ndarray) -> np.ndarray:
    """Boolean mask keeping only the last occurrence of each ID."""
    if not np.count_nonzero(feature_ids[1:] <= feature_ids[:-1]):
        # Sorted and distinct, as the trainer publishes them.
        keep = np.empty(len(feature_ids), dtype=bool)
        keep.fill(True)
        return keep
    # The first occurrence in reverse order is the last one.
    first_in_reversed = deduplicate(feature_ids[::-1]).first
    keep = np.zeros(len(feature_ids), dtype=bool)
    keep[len(feature_ids) - 1 - first_in_reversed] = True
    return keep


class UpdateApplier:
    """Applies trainer-pushed embedding refreshes to a flat cache."""

    def __init__(self, cache: FlatCache):
        self.cache = cache
        self.applied_batches = 0

    def apply(
        self,
        table_id: int,
        feature_ids: np.ndarray,
        vectors: np.ndarray,
    ) -> UpdateOutcome:
        """Refresh one table's updated embeddings inside the cache.

        Only tests call this one-delta form: serving refreshes go through
        :meth:`apply_deltas`, so the ledger's ``core.updates.*`` spans,
        which trace this method, read 0 on every workload.

        Args:
            table_id: table whose parameters changed.
            feature_ids: updated IDs; duplicates resolve last-write-wins
                (only the final row per ID touches the cache).
            vectors: the new embedding rows, aligned with ``feature_ids``.
        """
        return self.apply_deltas([(table_id, feature_ids, vectors)])

    # hot-path: vectorized
    def apply_deltas(
        self,
        deltas: Sequence[Tuple[int, np.ndarray, np.ndarray]],
    ) -> UpdateOutcome:
        """Refresh the ``(table_id, feature_ids, vectors)`` deltas of one
        log batch — at most one per table — and return the summed outcome.

        Tables own disjoint flat keys, so deltas that share an embedding
        dimension are applied in one pass (one index lookup that also
        re-stamps, one pool write, one pointer invalidation) with exactly
        the effect of applying them one after another.  Nothing is touched
        unless every delta is well-formed.  Nothing is charged to a
        simulated clock here: serving applies refreshes in idle slots, and
        :class:`~repro.refresh.RefreshScheduler` prices their two kernels.
        """
        cache = self.cache
        if len({table_id for table_id, _, _ in deltas}) != len(deltas):
            raise WorkloadError("updates: more than one delta for a table")
        total = duplicates = 0
        #: dim -> (positions in ``deltas``, their ids, their rows)
        by_dim: Dict[int, Tuple[list, list, list]] = {}
        for i, (table_id, feature_ids, vectors) in enumerate(deltas):  # lint: allow-loop (per delta: dedup + encode)
            feature_ids = np.ascontiguousarray(feature_ids, dtype=np.uint64)
            vectors = np.asarray(vectors, dtype=np.float32)
            if vectors.shape[0] != len(feature_ids):
                raise WorkloadError("updates: ids/vectors length mismatch")
            dim = cache._dim_of_table[table_id]
            if vectors.shape[1] != dim:
                raise WorkloadError(
                    f"updates: expected dim {dim}, got {vectors.shape[1]}"
                )
            total += len(feature_ids)
            if len(feature_ids):
                keep = _last_occurrence_mask(feature_ids)
                kept = int(np.count_nonzero(keep))
                if kept < len(keep):
                    duplicates += len(keep) - kept
                    feature_ids = feature_ids[keep]
                    vectors = vectors[keep]
            positions, id_parts, row_parts = by_dim.setdefault(
                dim, ([], [], [])
            )
            positions.append(i)
            id_parts.append(feature_ids)
            row_parts.append(vectors)
        self.applied_batches += len(deltas)

        refreshed_of = np.zeros(len(deltas), dtype=np.int64)
        pointer_keys = 0
        invalidated = 0
        for positions, id_parts, row_parts in by_dim.values():  # lint: allow-loop (per embedding dimension)
            sizes = [len(ids) for ids in id_parts]
            keys = cache.codec.encode_many(
                np.repeat([deltas[i][0] for i in positions], sizes),
                np.concatenate(id_parts),
            )
            vectors = np.concatenate(row_parts)
            # The probe's touch bumps the versions of the refreshed keys.
            # It stamps the DRAM pointers it finds too, which is invisible:
            # the invalidation below erases every one of them.
            found, pointers, _ = cache.index.lookup(keys, stamp=cache._clock)
            dram = found & is_dram_pointer(pointers)
            cached = found & ~dram
            if np.count_nonzero(cached):
                # In-place refresh: write the pool slots.
                cache.pool.write(untag(pointers[cached]), vectors[cached])
                delta_of = np.repeat(positions, sizes)
                refreshed_of += np.bincount(
                    delta_of[cached], minlength=len(deltas)
                )
            num_dram = int(np.count_nonzero(dram))
            if num_dram:
                pointer_keys += num_dram
                invalidated += cache.invalidate_dram_pointers(keys[dram])

        refreshed = int(refreshed_of.sum())
        return UpdateOutcome(
            refreshed=refreshed,
            pointers_invalidated=invalidated,
            untracked=total - duplicates - refreshed - pointer_keys,
            duplicates=duplicates,
            pointers_skipped=pointer_keys - invalidated,
        )
