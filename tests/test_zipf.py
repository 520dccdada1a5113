"""Tests for the power-law sampler."""

import gc

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import zipf
from repro.workloads.zipf import ZipfSampler


class TestZipfSampler:
    def test_samples_within_corpus(self):
        s = ZipfSampler(1000, seed=1)
        ids = s.sample(5000)
        assert (ids < 1000).all()

    def test_rejects_positive_alpha(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(100, alpha=0.5)

    def test_rejects_empty_corpus(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0)

    def test_zero_count(self):
        assert len(ZipfSampler(100).sample(0)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(100).sample(-1)

    def test_skew_concentrates_mass(self):
        s = ZipfSampler(10_000, alpha=-1.2, seed=3)
        ids = s.sample(50_000)
        hot = set(s.hottest_ids(500).tolist())
        hot_fraction = np.isin(ids, list(hot)).mean()
        # 5% of IDs should carry well over a third of the accesses.
        assert hot_fraction > 0.35

    def test_more_negative_alpha_is_more_skewed(self):
        mild = ZipfSampler(10_000, alpha=-0.8, seed=5)
        steep = ZipfSampler(10_000, alpha=-2.0, seed=5)
        top_mild = np.isin(mild.sample(20_000), mild.hottest_ids(100)).mean()
        top_steep = np.isin(steep.sample(20_000), steep.hottest_ids(100)).mean()
        assert top_steep > top_mild

    def test_deterministic_given_seed(self):
        a = ZipfSampler(1000, seed=9).sample(100)
        b = ZipfSampler(1000, seed=9).sample(100)
        np.testing.assert_array_equal(a, b)

    def test_permutation_decouples_rank_from_id(self):
        s = ZipfSampler(10_000, seed=2)
        hot = s.hottest_ids(10)
        # Hot IDs should not simply be 0..9.
        assert sorted(hot.tolist()) != list(range(10))

    def test_popularity_of_rank_decreases(self):
        s = ZipfSampler(1000)
        assert s.popularity_of_rank(1) > s.popularity_of_rank(10)

    def test_popularity_sums_to_one(self):
        s = ZipfSampler(50)
        total = sum(s.popularity_of_rank(r) for r in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_popularity_rank_bounds(self):
        s = ZipfSampler(50)
        with pytest.raises(WorkloadError):
            s.popularity_of_rank(0)
        with pytest.raises(WorkloadError):
            s.popularity_of_rank(51)

    def test_external_rng(self):
        s = ZipfSampler(100, seed=1)
        rng = np.random.default_rng(7)
        a = s.sample(10, rng=rng)
        rng2 = np.random.default_rng(7)
        b = s.sample(10, rng=rng2)
        np.testing.assert_array_equal(a, b)


class TestWeakMemo:
    """Samplers alive at once share their tables; the last one dropped
    frees them (``gc`` off: reference counting alone must do it)."""

    CORPUS, ALPHA, SEED = 12_347, -1.37, 77

    def test_live_samplers_share_and_the_last_frees(self):
        perm_key = (self.CORPUS, self.SEED)
        cdf_key = (self.CORPUS, self.ALPHA)
        gc.disable()
        try:
            a = ZipfSampler(self.CORPUS, self.ALPHA, seed=self.SEED)
            b = ZipfSampler(self.CORPUS, self.ALPHA, seed=self.SEED)
            other_seed = ZipfSampler(self.CORPUS, self.ALPHA, seed=self.SEED + 1)
            assert a._rank_to_id is b._rank_to_id
            assert a._cdf is b._cdf is other_seed._cdf
            assert a._rank_to_id is not other_seed._rank_to_id
            assert zipf._PERM_CACHE[perm_key] is a._rank_to_id
            assert zipf._CDF_CACHE[cdf_key] is a._cdf
            drawn = a.sample(2_000)
            hottest = a.hottest_ids(50).copy()
            del a, other_seed
            assert perm_key in zipf._PERM_CACHE  # b still holds it
            del b
            assert perm_key not in zipf._PERM_CACHE
            assert cdf_key not in zipf._CDF_CACHE
            again = ZipfSampler(self.CORPUS, self.ALPHA, seed=self.SEED)
            assert again.sample(2_000).tobytes() == drawn.tobytes()
            assert again.hottest_ids(50).tobytes() == hottest.tobytes()
        finally:
            gc.enable()

    def test_the_memo_has_no_cap(self):
        samplers = [ZipfSampler(300 + i, seed=i) for i in range(100)]
        assert all(
            zipf._PERM_CACHE[(300 + i, i)] is s._rank_to_id
            for i, s in enumerate(samplers)
        )
