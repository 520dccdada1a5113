"""Configuration of the Fleche cache scheme."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .precision import PrecisionConfig


@dataclass(frozen=True)
class FlecheConfig:
    """Tunables of the Fleche embedding layer.

    Attributes:
        cache_ratio: cache size as a fraction of total embedding parameters
            (the paper's "5%" notation).
        key_bits: width of flat keys produced by the codec.
        admission_probability: probability-based filter (§3.1): a missing
            embedding is admitted to the cache with this probability, so
            IDs occurring fewer than ``1/p`` times tend to bypass the cache.
        evict_low_watermark: utilisation eviction drives a slab class down
            to.  Eviction starts when the class cannot satisfy an
            allocation, i.e. at full utilisation.
        use_fusion: merge per-table query kernels via self-identified
            kernel fusion (§3.2).
        decouple_copy: split indexing and copying into separate kernels and
            overlap the DRAM query with the copy kernel (§3.3).
        use_unified_index: offload part of the CPU-DRAM index to the GPU
            (§3.3).
        unified_index_fraction: fraction of FC index slots the unified
            index may occupy (tuned at runtime by
            :class:`repro.core.unified_index.UnifiedIndexTuner`).
        index_load_factor: target load factor of the slab-hash index.
        precision: mixed-precision tiering of cache entries
            (:class:`repro.core.precision.PrecisionConfig`); the default
            is the one-tier, all-fp32 cache of the paper.
    """

    cache_ratio: float = 0.05
    key_bits: int = 64
    admission_probability: float = 1.0
    evict_low_watermark: float = 0.85
    use_fusion: bool = True
    decouple_copy: bool = True
    use_unified_index: bool = True
    unified_index_fraction: float = 0.5
    index_load_factor: float = 0.75
    seed: int = 0
    precision: PrecisionConfig = field(default_factory=PrecisionConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.cache_ratio <= 1.0:
            raise ConfigError("cache_ratio must be in (0, 1]")
        if not 8 <= self.key_bits <= 64:
            raise ConfigError("key_bits must be in [8, 64]")
        if not 0.0 < self.admission_probability <= 1.0:
            raise ConfigError("admission_probability must be in (0, 1]")
        if not 0.0 < self.evict_low_watermark < 1.0:
            raise ConfigError("evict_low_watermark must be in (0, 1)")
        if not 0.0 <= self.unified_index_fraction <= 4.0:
            raise ConfigError("unified_index_fraction must be in [0, 4]")
        if not 0.0 < self.index_load_factor <= 1.0:
            raise ConfigError("index_load_factor must be in (0, 1]")
