"""Hotspot profiling: the statistic behind the paper's Issue 1.

For each table, the *hotspot size at share s* is the smallest number of
keys whose accesses cover an ``s`` fraction of the table's traffic.  Real
datasets have wildly different hotspot sizes per table (and they drift),
so a fixed per-table cache split strands capacity on cold tables while
hot tables thrash — the structural defect Figures 3/12 quantify.

:func:`global_vs_static_split` turns the profile into a capacity
comparison: at one total budget, how much traffic can a *global* hot set
cover vs. the best any *per-table proportional* split could do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import WorkloadError
from ..workloads.trace import Trace


@dataclass(frozen=True)
class HotspotProfile:
    """Per-table hotspot statistics for one trace."""

    #: table -> number of keys covering the target share of that table's
    #: accesses.
    hotspot_sizes: Dict[int, int]
    #: table -> that table's share of total traffic.
    traffic_shares: Dict[int, float]
    share: float

    @property
    def imbalance(self) -> float:
        """Max/min hotspot size across tables (1.0 = homogeneous)."""
        sizes = [max(s, 1) for s in self.hotspot_sizes.values()]
        return max(sizes) / min(sizes)


def _per_table_counts(trace: Trace) -> List[np.ndarray]:
    per_batch = [b.ids_per_table for b in trace]
    counts = []
    for table in range(trace.num_tables):
        ids = np.concatenate([tables[table] for tables in per_batch])
        _, occurrences = np.unique(ids, return_counts=True)
        counts.append(np.sort(occurrences)[::-1])
    return counts


def hotspot_profile(trace: Trace, share: float = 0.8) -> HotspotProfile:
    """Keys needed per table to cover ``share`` of its accesses."""
    if not 0.0 < share <= 1.0:
        raise WorkloadError("share must be in (0, 1]")
    counts = _per_table_counts(trace)
    total_traffic = sum(int(c.sum()) for c in counts)
    sizes: Dict[int, int] = {}
    shares: Dict[int, float] = {}
    for table, table_counts in enumerate(counts):
        table_traffic = int(table_counts.sum())
        shares[table] = table_traffic / total_traffic if total_traffic else 0.0
        if table_traffic == 0:
            sizes[table] = 0
            continue
        cumulative = np.cumsum(table_counts)
        sizes[table] = int(
            np.searchsorted(cumulative, share * table_traffic) + 1
        )
    return HotspotProfile(hotspot_sizes=sizes, traffic_shares=shares,
                          share=share)


def global_vs_static_split(trace: Trace, total_budget: int) -> Dict[str, float]:
    """Traffic coverage of one budget: global hot set vs per-table split.

    * ``global``: pin the ``total_budget`` most frequent keys across all
      tables (what a flat cache converges towards).
    * ``static``: give each table ``budget x its corpus share`` slots and
      pin each table's local top keys (the best case of a HugeCTR-style
      proportional split — its real hit rate is lower still).

    Returns coverage fractions; their gap is Issue 1's upper bound.
    """
    if total_budget <= 0:
        raise WorkloadError("total_budget must be positive")
    counts = _per_table_counts(trace)
    total_traffic = sum(int(c.sum()) for c in counts)
    if total_traffic == 0:
        raise WorkloadError("empty trace")

    # Global: top keys across all tables by frequency.
    merged = np.sort(np.concatenate(counts))[::-1]
    global_hits = int(merged[:total_budget].sum())

    # Static proportional split by corpus size.
    corpus_sizes = np.array([len(c) for c in counts], dtype=np.float64)
    fractions = corpus_sizes / corpus_sizes.sum()
    static_hits = 0
    for table_counts, fraction in zip(counts, fractions):
        slots = max(1, int(round(total_budget * fraction)))
        static_hits += int(table_counts[:slots].sum())

    return {
        "global": global_hits / total_traffic,
        "static": static_hits / total_traffic,
        "gap": (global_hits - static_hits) / total_traffic,
    }
