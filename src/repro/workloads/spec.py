"""Dataset specifications.

A :class:`DatasetSpec` describes a sparse workload the way Table 2 of the
paper does — number of embedding tables, sample count, distinct sparse IDs,
parameter size — plus the per-field sampling statistics (corpus size, skew,
drift) that the generators need to synthesise traces with the right cache
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import WorkloadError
from ..tables.table_spec import TableSpec


@dataclass(frozen=True)
class FieldSpec:
    """Sampling description of one categorical field (one embedding table).

    Attributes:
        corpus_size: distinct IDs of this field after preprocessing.
        alpha: power-law exponent of the field's popularity distribution
            (more negative = more skewed).
        drift: fraction of the popularity permutation re-drawn per epoch of
            trace time — models hotspots moving over time, which is what
            defeats a static per-table partition.
    """

    corpus_size: int
    alpha: float = -1.2
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.corpus_size <= 0:
            raise WorkloadError("field corpus_size must be positive")
        if self.alpha >= 0:
            raise WorkloadError("field alpha must be negative")
        if not 0.0 <= self.drift <= 1.0:
            raise WorkloadError("field drift must be in [0, 1]")


@dataclass(frozen=True)
class DatasetSpec:
    """A full sparse dataset description (one row of Table 2)."""

    name: str
    fields: Sequence[FieldSpec]
    num_samples: int
    dim: int
    #: IDs per sample per field (1 = one-hot; >1 models multi-hot fields).
    ids_per_field: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.fields:
            raise WorkloadError(f"dataset {self.name}: needs at least one field")
        if self.num_samples <= 0:
            raise WorkloadError(f"dataset {self.name}: num_samples must be > 0")
        if self.dim <= 0:
            raise WorkloadError(f"dataset {self.name}: dim must be > 0")

    @property
    def num_tables(self) -> int:
        return len(self.fields)

    @property
    def total_sparse_ids(self) -> int:
        """Distinct sparse IDs across all fields (Table 2's "# Sparse IDs")."""
        return sum(f.corpus_size for f in self.fields)

    @property
    def param_bytes(self) -> int:
        """Total embedding parameter bytes (Table 2's "Param Size")."""
        return sum(f.corpus_size * self.dim * 4 for f in self.fields)

    def table_specs(self) -> List[TableSpec]:
        """The embedding-table specs this dataset induces."""
        return [
            TableSpec(table_id=i, corpus_size=f.corpus_size, dim=self.dim)
            for i, f in enumerate(self.fields)
        ]
