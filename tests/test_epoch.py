"""Tests for epoch-based space reclamation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mempool.epoch import EpochReclaimer


def locs(*values):
    return np.array(values, dtype=np.uint64)


class TestEpochReclaimer:
    def test_starts_at_epoch_zero(self):
        assert EpochReclaimer()._epoch == 0

    def test_advance_increments(self):
        r = EpochReclaimer()
        assert r.advance() == 1
        assert r.advance() == 2

    def test_retire_without_readers_collects_after_advance(self):
        r = EpochReclaimer()
        r.retire(locs(1, 2, 3))
        assert len(r.collect()) == 0  # same epoch: not yet safe
        r.advance()
        np.testing.assert_array_equal(np.sort(r.collect()), locs(1, 2, 3))

    def test_pinned_reader_blocks_collection(self):
        r = EpochReclaimer()
        epoch = r.pin()
        r.retire(locs(7))
        r.advance()
        assert len(r.collect()) == 0  # reader still in the retire epoch
        r.unpin(epoch)
        assert r.collect().tolist() == [7]

    def test_reader_in_newer_epoch_does_not_block_older_garbage(self):
        r = EpochReclaimer()
        r.retire(locs(1))
        r.advance()
        later = r.pin()  # pins epoch 1, garbage is from epoch 0
        assert r.collect().tolist() == [1]
        r.unpin(later)

    def test_collect_is_idempotent(self):
        r = EpochReclaimer()
        r.retire(locs(5))
        r.advance()
        assert r.collect().tolist() == [5]
        assert len(r.collect()) == 0

    def test_multiple_epochs_drain_in_order(self):
        r = EpochReclaimer()
        r.retire(locs(1))
        r.advance()
        r.retire(locs(2))
        r.advance()
        got = sorted(r.collect().tolist())
        assert got == [1, 2]

    def test_pending_counts_uncollected(self):
        r = EpochReclaimer()
        r.retire(locs(1, 2))
        assert r.pending == 2
        r.advance()
        r.collect()
        assert r.pending == 0

    def test_unpin_without_pin_raises(self):
        with pytest.raises(SimulationError):
            EpochReclaimer().unpin(0)

    def test_multiple_readers_same_epoch(self):
        r = EpochReclaimer()
        e1, e2 = r.pin(), r.pin()
        r.retire(locs(9))
        r.advance()
        r.unpin(e1)
        assert len(r.collect()) == 0  # second reader still pinned
        r.unpin(e2)
        assert r.collect().tolist() == [9]

    def test_retire_empty_is_noop(self):
        r = EpochReclaimer()
        r.retire(np.zeros(0, np.uint64))
        r.advance()
        assert len(r.collect()) == 0

    def test_read_after_delete_safety_scenario(self):
        """The paper's §3.1 scenario: a reader holds embeddings an eviction
        pass deletes; the slots must not be reusable until the reader ends.
        """
        r = EpochReclaimer()
        reader_epoch = r.pin()       # copy kernel starts
        r.retire(locs(100, 101))     # eviction deletes logically
        r.advance()                  # next batch begins
        assert len(r.collect()) == 0  # copy kernel could still read
        r.unpin(reader_epoch)        # copy kernel finished
        assert sorted(r.collect().tolist()) == [100, 101]
