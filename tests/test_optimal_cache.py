"""Tests for the clairvoyant hit-rate upper bounds."""

import numpy as np
import pytest

from repro.baselines.optimal_cache import (
    belady_hit_rate,
    frequency_optimal_hit_rate,
)
from repro.errors import WorkloadError
from repro.workloads.trace import Trace, TraceBatch


def trace_of(*batches):
    return Trace([
        TraceBatch([np.array(ids, np.uint64) for ids in b], batch_size=4)
        for b in batches
    ])


class TestFrequencyOptimal:
    def test_all_fit(self):
        t = trace_of([[1, 2, 1, 2]])
        assert frequency_optimal_hit_rate(t, capacity=2) == 1.0

    def test_picks_most_frequent(self):
        # Key 1 appears 3x, keys 2/3 once each; capacity 1 -> 3/5 hits.
        t = trace_of([[1, 1, 1, 2, 3]])
        assert frequency_optimal_hit_rate(t, capacity=1) == pytest.approx(3 / 5)

    def test_tables_are_distinct_keyspaces(self):
        t = trace_of([[1, 1], [1, 1]])  # same id in two tables
        assert frequency_optimal_hit_rate(t, capacity=1) == pytest.approx(0.5)

    def test_capacity_validation(self):
        with pytest.raises(WorkloadError):
            frequency_optimal_hit_rate(trace_of([[1]]), capacity=0)

    def test_monotone_in_capacity(self):
        ids = list(range(20)) * 2
        t = trace_of([ids])
        small = frequency_optimal_hit_rate(t, 5)
        large = frequency_optimal_hit_rate(t, 15)
        assert large >= small


class TestBelady:
    def test_all_fit_pays_compulsory_misses(self):
        t = trace_of([[1, 2, 1, 2]])
        assert belady_hit_rate(t, capacity=2) == pytest.approx(0.5)

    def test_classic_example(self):
        # Belady on 1,2,3,1,2 with capacity 2:
        # 1 miss, 2 miss, 3 miss (evict whichever of 1/2 is used later...
        # actually evict 2: next use of 1 at idx 3, of 2 at idx 4), 1 hit,
        # 2 miss -> 1 hit / 5.
        t = trace_of([[1, 2, 3, 1, 2]])
        assert belady_hit_rate(t, capacity=2) == pytest.approx(1 / 5)

    def test_belady_at_least_as_good_as_lru_trace(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 30, size=400).tolist()
        t = trace_of([ids])
        # LRU simulation for comparison.
        from collections import OrderedDict

        lru = OrderedDict()
        hits = 0
        for k in ids:
            if k in lru:
                hits += 1
                lru.move_to_end(k)
            else:
                lru[k] = None
                if len(lru) > 10:
                    lru.popitem(last=False)
        assert belady_hit_rate(t, 10) >= hits / len(ids)

    def test_belady_pays_compulsory_misses_frequency_does_not(self):
        # "Optimal knows all accesses" (paper): the frequency bound can
        # prefetch, so it hits everything that fits; Belady still pays
        # compulsory misses.
        t = trace_of([[1, 2, 3, 1, 2, 3]])
        assert frequency_optimal_hit_rate(t, 3) == pytest.approx(1.0)
        assert belady_hit_rate(t, 3) == pytest.approx(0.5)
