"""Time accounting for the simulator.

Every interval the executor spends is tagged with a :class:`Category`.  The
paper's analysis splits cache-query time into *kernel maintenance* (CPU
launching, context initialisation, synchronisation, metadata copies — see
Figure 4) and *execution* (time actually spent in GPU kernels); the
evaluation breakdowns (Figure 16) further distinguish cache indexing, cache
copying, DRAM indexing, DRAM copying, and "other" host work.  The categories
below are the union of those views.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable


class Category(str, enum.Enum):
    """What an accounted interval was spent on."""

    #: CPU-side kernel launch, stream dispatch, synchronisation, and the
    #: small metadata host/device copies around kernels.
    MAINTENANCE = "maintenance"
    #: Device time inside cache *indexing* kernels.
    CACHE_INDEX = "cache_index"
    #: Device time inside cache *copying* (gather/scatter) kernels.
    CACHE_COPY = "cache_copy"
    #: Host time indexing the CPU-DRAM embedding store.
    DRAM_INDEX = "dram_index"
    #: Host/DMA time copying missing embeddings (DRAM read + PCIe).
    DRAM_COPY = "dram_copy"
    #: Device time inside MLP / dense-compute kernels.
    MLP = "mlp"
    #: Host-side work not tied to querying (dedup, restore, encoding, ...).
    OTHER = "other"


#: Categories whose time is device-kernel execution (for Figure 4's
#: maintenance-vs-execution split).
EXECUTION_CATEGORIES = frozenset(
    {Category.CACHE_INDEX, Category.CACHE_COPY, Category.MLP}
)


@dataclass
class TimeBreakdown:
    """Accumulated per-category durations plus event counters."""

    seconds: Dict[Category, float] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)

    def add(self, category: Category, duration: float) -> None:
        """Accumulate ``duration`` seconds under ``category``."""
        self.seconds[category] = self.seconds.get(category, 0.0) + duration

    def count(self, event: str) -> None:
        """Increment the ``event`` counter by one."""
        self.counters[event] += 1

    def total(self, categories: Iterable[Category] = tuple(Category)) -> float:
        """Sum of the durations accumulated under ``categories``."""
        return sum(self.seconds.get(c, 0.0) for c in categories)

    @property
    def maintenance_time(self) -> float:
        """Time spent on kernel maintenance (Figure 4's upper band)."""
        return self.seconds.get(Category.MAINTENANCE, 0.0)

    @property
    def execution_time(self) -> float:
        """Device kernel execution time (Figure 4's lower band)."""
        return self.total(EXECUTION_CATEGORIES)

    @property
    def cache_query_time(self) -> float:
        """Cache index + cache copy time (Figure 16's "Cache Query")."""
        return self.total((Category.CACHE_INDEX, Category.CACHE_COPY))

    @property
    def dram_query_time(self) -> float:
        """DRAM index + DRAM copy time (Figure 16's "DRAM Query")."""
        return self.total((Category.DRAM_INDEX, Category.DRAM_COPY))

    def merged_with(self, other: "TimeBreakdown") -> "TimeBreakdown":
        """Return a new breakdown combining ``self`` and ``other``."""
        merged = TimeBreakdown(dict(self.seconds), Counter(self.counters))
        for category, duration in other.seconds.items():
            merged.add(category, duration)
        merged.counters.update(other.counters)
        return merged

    def reset(self) -> None:
        """Clear all accumulated durations and counters."""
        self.seconds.clear()
        self.counters.clear()
