"""Property tests for the workload samplers and scenario generators.

Hypothesis sweeps the parameter space the unit tests only spot-check:

* ``ZipfSampler`` — popularity is non-increasing in rank and sums to 1;
  equal seeds give equal draws.
* ``_DriftingField`` — drift preserves the permutation (same id
  multiset), moves a bounded number of entries per epoch, and two
  identically seeded fields stay in lockstep across epochs — including
  across *separate runs*, which guards the permutation-cache detach.
* Scenario generators — every (scenario, seed, parameter) combination
  builds a load that passes ``validate_load``: phase boundaries are
  contiguous and no phase ever emits an out-of-corpus id.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import build_scenario, catalogue, validate_load
from repro.workloads.spec import FieldSpec
from repro.workloads.synthetic import _DriftingField, uniform_tables_spec
from repro.workloads.zipf import ZipfSampler

RELAXED = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

corpora = st.integers(min_value=2, max_value=400)
alphas = st.floats(min_value=-2.5, max_value=-0.2)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestZipfSampler:
    @RELAXED
    @given(corpus=corpora, alpha=alphas)
    def test_popularity_non_increasing_and_normalised(self, corpus, alpha):
        sampler = ZipfSampler(corpus, alpha, seed=0)
        masses = [
            sampler.popularity_of_rank(r) for r in range(1, corpus + 1)
        ]
        for hot, cold in zip(masses, masses[1:]):
            assert hot >= cold - 1e-12
        assert abs(sum(masses) - 1.0) < 1e-9

    @RELAXED
    @given(corpus=corpora, alpha=alphas, seed=seeds)
    def test_equal_seeds_draw_equal_ids(self, corpus, alpha, seed):
        a = ZipfSampler(corpus, alpha, seed=seed).sample(64)
        b = ZipfSampler(corpus, alpha, seed=seed).sample(64)
        assert np.array_equal(a, b)
        assert int(a.max(initial=0)) < corpus


class TestDriftingField:
    @RELAXED
    @given(
        corpus=st.integers(min_value=10, max_value=400),
        drift=st.floats(min_value=0.001, max_value=1.0),
        seed=seeds,
    )
    def test_epoch_preserves_permutation_and_bounds_motion(
        self, corpus, drift, seed,
    ):
        field = _DriftingField(
            FieldSpec(corpus_size=corpus, alpha=-1.2, drift=drift),
            seed=seed,
        )
        before = field.sampler._rank_to_id.copy()
        field.advance_epoch()
        after = field.sampler._rank_to_id
        # A swap permutes, never invents or drops ids.
        assert np.array_equal(np.sort(after), np.sort(before))
        hot_pool = max(1, corpus // 10)
        move = min(max(1, int(corpus * drift)), hot_pool)
        changed = int(np.count_nonzero(after != before))
        assert changed <= 2 * move

    @RELAXED
    @given(
        corpus=st.integers(min_value=10, max_value=400),
        drift=st.floats(min_value=0.001, max_value=1.0),
        seed=seeds,
        epochs=st.integers(min_value=0, max_value=5),
    )
    def test_equal_seeds_stay_in_lockstep_across_epochs(
        self, corpus, drift, seed, epochs,
    ):
        spec = FieldSpec(corpus_size=corpus, alpha=-1.2, drift=drift)

        def run():
            field = _DriftingField(spec, seed=seed)
            for _ in range(epochs):
                field.advance_epoch()
            return field.sample(32)

        # Two *sequential* runs: the second must not observe the first
        # run's drift mutations through the shared permutation cache.
        assert np.array_equal(run(), run())


class TestScenarioGenerators:
    SCENARIO_STRATEGY = st.sampled_from(
        ["flash_crowd", "diurnal", "multi_tenant", "cold_start_flood"]
    )

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=SCENARIO_STRATEGY,
        seed=st.integers(min_value=0, max_value=10_000),
        corpus=st.integers(min_value=300, max_value=3_000),
        tables=st.integers(min_value=1, max_value=4),
    )
    def test_every_generated_load_is_in_spec(
        self, name, seed, corpus, tables,
    ):
        dataset = uniform_tables_spec(
            num_tables=tables, corpus_size=corpus, alpha=-1.2, dim=8,
        )
        overrides = {
            "flash_crowd": {"base_rate": 5_000.0},
            "diurnal": {"mean_rate": 5_000.0},
            "multi_tenant": {},
            "cold_start_flood": {
                "base_rate": 5_000.0,
                "flood_size": min(64, corpus - 1),
            },
        }[name]
        with pytest.MonkeyPatch.context() as patch:
            if name == "multi_tenant":  # its fixed length, cut to 5 ms
                patch.setattr(catalogue, "DURATION", 5e-3)
            load = build_scenario(name, dataset, seed=seed, **overrides).build()
        validate_load(load, dataset)
        phases = load.phases
        assert phases[0].start == 0.0
        for prev, cur in zip(phases, phases[1:]):
            assert cur.start == prev.end
        for request in load.requests:
            assert 0.0 <= request.arrival_time <= load.duration
