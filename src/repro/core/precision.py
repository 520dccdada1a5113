"""Mixed-precision, frequency-aware cache entries.

Fleche's flat cache stores one fixed-width fp32 embedding per key, so
effective capacity is bytes-per-entry bound.  Following "Mixed-Precision
Embedding Using a Cache" (arXiv 2010.11305), hot keys need full precision
while the warm/cold tail tolerates fp16/int8: this module defines the
precision *tiers*, the vectorized quantize/dequantize kernels the slab
pool fuses into its write/read paths, the analytic per-tier round-trip
error bounds the property tests pin, and the pluggable eviction-score
policies (LRU / LFU / hybrid, mirroring hpcaitech FreqCacheEmbedding's
replacement variants) that make eviction frequency-aware.

Quantization format:

* ``fp32`` — stored verbatim (4 B/value), bit-exact.
* ``fp16`` — IEEE half, saturating at ±65504 (2 B/value).
* ``int8`` — symmetric per-row linear quantization: one float32 scale per
  embedding row (``max|row| / 127``), values rounded to the nearest of
  255 signed steps (1 B/value + 4 B/row).  Zero rows are exact.

Everything here is pure array math so the copy kernels stay plain
vectorised gathers — the dequant rides inside the grouped gather and the
hot-path lint contract holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError

#: Tier names, hottest first.  The tuple index is the tier *code* used in
#: per-slot metadata (smaller code = hotter = more precise).
TIER_FP32 = "fp32"
TIER_FP16 = "fp16"
TIER_INT8 = "int8"
TIERS: Tuple[str, ...] = (TIER_FP32, TIER_FP16, TIER_INT8)
TIER_CODES = {name: code for code, name in enumerate(TIERS)}

#: Weight of recency (against frequency) in the hybrid eviction order.
HYBRID_RECENCY_WEIGHT = 0.5

#: Largest finite IEEE half — fp16 quantization saturates here.
_FP16_MAX = np.float32(65504.0)

#: Absolute error floor of the int8 path covering float32 subnormal
#: scales (a scale below ~2^-149 underflows to zero and the whole row —
#: itself below ~127 * 2^-149 — dequantizes to zero).
_INT8_TINY = 2.0 ** -140


def slot_payload_bytes(dim: int, tier: str) -> int:
    """Payload bytes one cached embedding of ``dim`` occupies at ``tier``."""
    if tier == TIER_FP32:
        return dim * 4
    if tier == TIER_FP16:
        return dim * 2
    if tier == TIER_INT8:
        return dim + 4  # 1 B/value + one float32 scale per row
    raise ConfigError(f"unknown precision tier {tier!r}")


@dataclass(frozen=True)
class PrecisionConfig:
    """Tunables of the mixed-precision tiering subsystem.

    The default is the paper's flat cache: every byte goes to fp32, one
    slab class per dimension, pure-LRU eviction.  It is the one-tier case
    of the same replacement path the mixed splits take.

    Attributes:
        fp32_share / fp16_share / int8_share: fraction of each dimension
            class's *byte* budget allocated to each tier (must sum to 1;
            a zero share means the tier gets no slab class).  Keys are
            assigned tiers by frequency estimate against
            :data:`~repro.core.admission.HOT_MIN_COUNT` /
            :data:`~repro.core.admission.WARM_MIN_COUNT`.
        eviction_policy: victim-ordering policy — ``"lru"`` (pure
            recency), ``"lfu"`` (least frequent first, recency breaking
            ties), or ``"hybrid"`` (weighted blend of both ranks,
            :data:`HYBRID_RECENCY_WEIGHT`).
    """

    fp32_share: float = 1.0
    fp16_share: float = 0.0
    int8_share: float = 0.0
    eviction_policy: str = "lru"

    def __post_init__(self) -> None:
        shares = (self.fp32_share, self.fp16_share, self.int8_share)
        if any(s < 0.0 for s in shares):
            raise ConfigError("tier shares must be non-negative")
        if abs(sum(shares) - 1.0) > 1e-9:
            raise ConfigError("tier shares must sum to 1")
        if self.fp32_share <= 0.0:
            raise ConfigError(
                "fp32_share must be positive (hot keys need a "
                "full-precision tier to promote into)"
            )
        if self.eviction_policy not in ("lru", "lfu", "hybrid"):
            raise ConfigError(
                "eviction_policy must be one of 'lru', 'lfu', 'hybrid'"
            )

    @property
    def quantizing(self) -> bool:
        """Whether any entry is stored below fp32."""
        return self.fp16_share > 0.0 or self.int8_share > 0.0

    @property
    def needs_estimator(self) -> bool:
        """Whether the cache must maintain a frequency estimator."""
        return self.quantizing or self.eviction_policy != "lru"

    def share_of(self, tier: str) -> float:
        return {
            TIER_FP32: self.fp32_share,
            TIER_FP16: self.fp16_share,
            TIER_INT8: self.int8_share,
        }[tier]

    def tiers_in_use(self) -> Tuple[str, ...]:
        """Tiers with a positive byte share, hottest first."""
        return tuple(t for t in TIERS if self.share_of(t) > 0.0)


# ---------------------------------------------------------------- quantize


# hot-path: vectorized
def quantize_rows(
    rows: np.ndarray, tier: str
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Quantize fp32 ``rows`` to ``tier``; returns ``(payload, scales)``.

    ``scales`` is ``None`` except for int8, where it is one float32 per
    row.  The int8 scale is computed in float64 (``max|row| / 127``) and
    narrowed to float32 for storage, matching what the slab pool holds.
    """
    rows = np.asarray(rows, dtype=np.float32)
    if tier == TIER_FP32:
        return rows, None
    if tier == TIER_FP16:
        clipped = np.clip(rows, -_FP16_MAX, _FP16_MAX)
        return clipped.astype(np.float16), None
    if tier == TIER_INT8:
        amax = np.abs(rows).max(axis=1, initial=0.0).astype(np.float64)
        scales = (amax / 127.0).astype(np.float32)
        safe = np.where(scales > 0.0, scales, 1.0).astype(np.float64)
        q = np.rint(rows.astype(np.float64) / safe[:, None])
        payload = np.clip(q, -127, 127).astype(np.int8)
        payload[scales == 0.0] = 0
        return payload, scales
    raise ConfigError(f"unknown precision tier {tier!r}")


# hot-path: vectorized
def dequantize_rows(
    payload: np.ndarray, scales: Optional[np.ndarray], tier: str
) -> np.ndarray:
    """Reconstruct fp32 rows from a tier's stored payload."""
    if tier == TIER_FP32:
        return np.asarray(payload, dtype=np.float32)
    if tier == TIER_FP16:
        return payload.astype(np.float32)
    if tier == TIER_INT8:
        return payload.astype(np.float32) * scales.astype(np.float32)[:, None]
    raise ConfigError(f"unknown precision tier {tier!r}")


def roundtrip_error_bound(rows: np.ndarray, tier: str) -> np.ndarray:
    """Analytic per-element bound on ``|x - dequant(quant(x))|``.

    The property suite asserts the implementation against these bounds:

    * fp32: exact (bound 0).
    * fp16: half-ulp rounding — ``max(|x| * 2^-11, 2^-25)`` for values in
      the representable range, plus the saturation overshoot ``|x| -
      65504`` beyond it (subnormal halves round within the absolute
      spacing ``2^-25``).
    * int8: half-step rounding ``scale / 2`` with slack ``scale * 2^-14``
      for the float32 narrowing of the scale and the dequant product
      rounding, plus an absolute floor covering subnormal-scale
      underflow (see ``_INT8_TINY``).
    """
    rows = np.asarray(rows, dtype=np.float32).astype(np.float64)
    if tier == TIER_FP32:
        return np.zeros_like(rows)
    if tier == TIER_FP16:
        magnitude = np.abs(rows)
        rounding = np.maximum(magnitude * 2.0**-11, 2.0**-25)
        saturation = np.maximum(magnitude - float(_FP16_MAX), 0.0)
        return rounding + saturation
    if tier == TIER_INT8:
        amax = np.abs(rows).max(axis=1, initial=0.0)
        scale = amax / 127.0
        bound = scale * (0.5 + 2.0**-14) + _INT8_TINY
        return np.broadcast_to(bound[:, None], rows.shape).copy()
    raise ConfigError(f"unknown precision tier {tier!r}")


# ---------------------------------------------------------------- eviction


class EvictionPolicy:
    """Victim-ordering policy of the flat cache's full-scan eviction.

    ``victim_order`` returns indices into the candidate arrays, coldest
    first; the cache evicts a prefix of that order.  ``counts`` is the
    frequency estimate per candidate key, or ``None`` when the policy
    does not read it (``reads_counts`` false) or the cache keeps no
    estimator.
    """

    name = "abstract"
    #: Whether ``victim_order`` reads ``counts``: the cache estimates the
    #: candidates' frequencies only for a policy that does.
    reads_counts = True

    def victim_order(
        self, stamps: np.ndarray, counts: Optional[np.ndarray]
    ) -> np.ndarray:
        raise NotImplementedError


class LruEviction(EvictionPolicy):
    """Pure recency: oldest stamp first, ties by slot (a stable sort over
    the candidates, which come in slot order)."""

    name = "lru"
    reads_counts = False

    def victim_order(self, stamps, counts):
        return np.argsort(stamps, kind="stable")


class LfuEviction(EvictionPolicy):
    """Least estimated frequency first; recency breaks ties."""

    name = "lfu"

    def victim_order(self, stamps, counts):
        # lexsort: last key is primary — frequency first, then stamp.
        return np.lexsort((stamps, counts))


class HybridEviction(EvictionPolicy):
    """Weighted blend of recency and frequency ranks.

    Both signals are reduced to normalized ranks in [0, 1] so the weight
    (:data:`HYBRID_RECENCY_WEIGHT` on recency) is scale-free; the stamp
    lexsort tie-break keeps the order fully deterministic.
    """

    name = "hybrid"

    def victim_order(self, stamps, counts):
        n = len(stamps)
        if n <= 1:
            return np.arange(n)
        span = float(n - 1)
        stamp_rank = np.empty(n, dtype=np.float64)
        stamp_rank[np.argsort(stamps, kind="stable")] = (
            np.arange(n, dtype=np.float64) / span
        )
        count_rank = np.empty(n, dtype=np.float64)
        count_rank[np.argsort(counts, kind="stable")] = (
            np.arange(n, dtype=np.float64) / span
        )
        w = HYBRID_RECENCY_WEIGHT
        score = w * stamp_rank + (1.0 - w) * count_rank
        return np.lexsort((stamps, score))


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Factory mirroring :func:`repro.cluster.routing.make_policy`."""
    if name == "lru":
        return LruEviction()
    if name == "lfu":
        return LfuEviction()
    if name == "hybrid":
        return HybridEviction()
    raise ConfigError(f"unknown eviction policy {name!r}")
