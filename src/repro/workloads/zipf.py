"""Power-law (Zipf) ID sampling.

The paper's synthetic workloads draw feature IDs from a power-law
distribution with exponent alpha (default -1.2, §6.1): the i-th most
popular of ``n`` IDs has probability proportional to ``i**alpha``.

:class:`ZipfSampler` pre-computes the CDF once and then draws batches with
a vectorised ``searchsorted``, making million-ID traces cheap.  Popularity
rank is decoupled from ID value through a deterministic permutation so that
"hot" IDs are spread across the ID domain, as in real logs.  Samplers
alive at once share their CDF and permutation through a weak memo with
no size cap: a table lives exactly as long as some sampler (or a view of
it, such as :meth:`ZipfSampler.hottest_ids`) holds it.
"""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from ..errors import WorkloadError

#: Memoized CDF arrays keyed on ``(corpus_size, alpha)`` — the CDF is a
#: pure function of those two, so samplers alive at once (one per table
#: per replica per run) share one array.  Treated as read-only by
#: construction; held weakly (see the module docstring).
_CDF_CACHE = weakref.WeakValueDictionary()
#: Memoized rank->id permutations keyed on ``(corpus_size, seed)``,
#: held weakly too.
_PERM_CACHE = weakref.WeakValueDictionary()


def _cached_cdf(corpus_size: int, alpha: float) -> np.ndarray:
    key = (corpus_size, alpha)
    cdf = _CDF_CACHE.get(key)
    if cdf is None:
        ranks = np.arange(1, corpus_size + 1, dtype=np.float64)
        weights = ranks ** alpha
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        _CDF_CACHE[key] = cdf
    return cdf


def _cached_permutation(corpus_size: int, seed: int) -> np.ndarray:
    key = (corpus_size, seed)
    perm = _PERM_CACHE.get(key)
    if perm is None:
        perm_rng = np.random.default_rng(seed ^ 0x5EED)
        perm = perm_rng.permutation(corpus_size).astype(np.uint64)
        _PERM_CACHE[key] = perm
    return perm


def zipf_head_ids(fields, seed: int, count: int) -> "list":
    """Per-field Zipf-head id arrays under the serving seeding convention.

    The serving arrival stream builds one sampler per field with seed
    ``seed * 31 + i`` (see ``repro.serving.arrivals._FeatureSource``);
    anything that wants to pre-touch or reason about the head the stream
    will hammer — replica warm-up, the cluster drill's victim pick, the
    flash-crowd scenario — must use the *same* seeding or it warms the
    wrong keys.  This helper is the single home of that convention.

    ``count`` is clamped to the smallest corpus so every returned array
    has the same length.  Returns one uint64 array per field, hottest
    first.
    """
    fields = list(fields)
    if not fields:
        raise WorkloadError("zipf_head_ids needs at least one field")
    if count <= 0:
        raise WorkloadError("count must be positive")
    count = min(count, min(f.corpus_size for f in fields))
    return [
        np.asarray(
            ZipfSampler(
                f.corpus_size, f.alpha, seed=seed * 31 + i
            ).hottest_ids(count),
            dtype=np.uint64,
        )
        for i, f in enumerate(fields)
    ]


class ZipfSampler:
    """Draws feature IDs from a power-law popularity distribution."""

    def __init__(
        self,
        corpus_size: int,
        alpha: float = -1.2,
        seed: int = 0,
    ):
        if corpus_size <= 0:
            raise WorkloadError("corpus_size must be positive")
        if alpha >= 0:
            raise WorkloadError(f"alpha must be negative, got {alpha}")
        self.corpus_size = int(corpus_size)
        self.alpha = float(alpha)
        self._rng = np.random.default_rng(seed)
        self._cdf = _cached_cdf(self.corpus_size, self.alpha)
        self._rank_to_id = _cached_permutation(self.corpus_size, seed)

    def sample(self, count: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``count`` IDs (uint64) with replacement."""
        if count < 0:
            raise WorkloadError("sample count must be non-negative")
        generator = rng if rng is not None else self._rng
        u = generator.random(count)
        ranks = np.searchsorted(self._cdf, u, side="left")
        return self._rank_to_id[ranks]

    def hottest_ids(self, count: int) -> np.ndarray:
        """The ``count`` most popular IDs, in decreasing popularity."""
        count = min(count, self.corpus_size)
        return self._rank_to_id[:count]

    def popularity_of_rank(self, rank: int) -> float:
        """Probability mass of the ``rank``-th most popular ID (1-based)."""
        if not 1 <= rank <= self.corpus_size:
            raise WorkloadError("rank out of range")
        lower = self._cdf[rank - 2] if rank > 1 else 0.0
        return float(self._cdf[rank - 1] - lower)
