"""Tests for the adversarial scenario catalogue.

Every scenario must emit a structurally valid :class:`ScenarioLoad`
(positional requests, nondecreasing arrivals, in-corpus ids, contiguous
phase boundaries), and each catalogue entry must actually produce the
stress it advertises: the flash crowd rotates the head at an elevated
rate, the cold-start flood keeps its tail ids provably unseen until the
``UpdateLog`` publish, the diurnal envelope oscillates around its mean,
and the multi-tenant mix attributes every request.
"""

import numpy as np
import pytest

from repro import default_platform
from repro.cluster.drill import run_scenario_drill
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import WorkloadError
from repro.scenarios import (
    SCENARIOS,
    ColdStartFloodScenario,
    DiurnalScenario,
    FlashCrowdScenario,
    MultiTenantScenario,
    Phase,
    ScenarioLoad,
    TenantSpec,
    build_scenario,
    validate_load,
)
from repro import FlecheConfig
from repro.serving.arrivals import Request
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

#: Keep rates low enough that a full catalogue sweep stays cheap.
FAST_OVERRIDES = {
    "flash_crowd": {"base_rate": 20_000.0},
    "diurnal": {"mean_rate": 20_000.0},
    "multi_tenant": {
        "tenants": {
            "hot": TenantSpec(rate=12_000.0, alpha=-1.4, slo=2e-3),
            "flat": TenantSpec(rate=8_000.0, alpha=-0.8, slo=4e-3),
        },
    },
    "cold_start_flood": {"base_rate": 20_000.0, "flood_size": 128},
}


def _dataset(corpus=2_000, tables=3, dim=8):
    return uniform_tables_spec(
        num_tables=tables, corpus_size=corpus, alpha=-1.2, dim=dim,
    )


def _ids_of(request):
    return np.concatenate([np.asarray(c).ravel() for c in request.feature_ids])


class TestCatalogue:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_builds_valid_load(self, name):
        dataset = _dataset()
        scenario = build_scenario(
            name, dataset, seed=5, **FAST_OVERRIDES[name],
        )
        load = scenario.build()
        validate_load(load, dataset)
        assert load.requests, "scenario produced no traffic"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_phases_are_contiguous(self, name):
        scenario = build_scenario(
            name, _dataset(), seed=5, **FAST_OVERRIDES[name],
        )
        phases = scenario.phases()
        assert phases[0].start == 0.0
        for prev, cur in zip(phases, phases[1:]):
            assert cur.start == prev.end
        load = scenario.build()
        assert all(
            0.0 <= r.arrival_time <= load.duration for r in load.requests
        )

    def test_build_scenario_rejects_unknown_name(self):
        with pytest.raises(WorkloadError):
            build_scenario("meteor_strike", _dataset())

    def test_build_scenario_forwards_overrides(self):
        scenario = build_scenario(
            "flash_crowd", _dataset(), seed=1, intensity=2.5,
        )
        assert scenario.intensity == 2.5


class TestFlashCrowd:
    def _scenario(self, **overrides):
        params = dict(
            base_rate=30_000.0, storm_start=4e-3, storm_duration=4e-3,
            cooldown=2e-3, storm_share=1.0,
        )
        params.update(overrides)
        return FlashCrowdScenario(_dataset(), seed=2, **params)

    def test_storm_rate_is_base_times_intensity(self):
        scenario = self._scenario(intensity=3.0)
        calm, storm, cooldown = scenario.phases()
        assert storm.rate == calm.rate * 3.0
        assert cooldown.rate == calm.rate
        assert "rotated" in storm.note

    def test_head_rotation_is_visible_in_storm_traffic(self):
        scenario = self._scenario()
        base_head = int(scenario.field_samplers()[0].hottest_ids(1)[0])
        rotated_head = int(
            scenario.field_samplers(
                seed_offset=scenario.rotation_offset
            )[0].hottest_ids(1)[0]
        )
        assert base_head != rotated_head
        load = scenario.build()
        in_storm = [
            r for r in load.requests
            if scenario.storm_start
            <= r.arrival_time
            < scenario.storm_start + scenario.storm_duration
        ]
        calm = [
            r for r in load.requests
            if r.arrival_time < scenario.storm_start
        ]
        storm_hits = sum(
            int(np.count_nonzero(_ids_of(r) == rotated_head))
            for r in in_storm
        )
        calm_hits = sum(
            int(np.count_nonzero(_ids_of(r) == rotated_head))
            for r in calm
        )
        assert storm_hits > calm_hits

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            self._scenario(intensity=0.5)
        with pytest.raises(WorkloadError):
            self._scenario(storm_share=0.0)
        with pytest.raises(WorkloadError):
            self._scenario(storm_share=1.5)


class TestDiurnal:
    def test_envelope_oscillates_around_mean(self):
        scenario = DiurnalScenario(
            _dataset(), seed=3, mean_rate=40_000.0, amplitude=0.8,
            period=8e-3, duration=16e-3,
        )
        phases = scenario.phases()
        assert len(phases) == 2 * scenario.segments_per_period
        rates = [p.rate for p in phases]
        assert max(rates) > 40_000.0 > min(rates)
        assert max(rates) <= 40_000.0 * 1.8 + 1e-6
        assert min(rates) >= 40_000.0 * 0.2 - 1e-6

    def test_parameter_validation(self):
        dataset = _dataset()
        with pytest.raises(WorkloadError):
            DiurnalScenario(dataset, amplitude=1.0)
        with pytest.raises(WorkloadError):
            DiurnalScenario(dataset, period=0.0)
        with pytest.raises(WorkloadError):
            DiurnalScenario(dataset, segments_per_period=2)


class TestMultiTenant:
    def test_tenant_spec_validation(self):
        with pytest.raises(WorkloadError):
            TenantSpec(rate=0.0, alpha=-1.2, slo=1e-3)
        with pytest.raises(WorkloadError):
            TenantSpec(rate=1.0, alpha=0.5, slo=1e-3)
        with pytest.raises(WorkloadError):
            TenantSpec(rate=1.0, alpha=-1.2, slo=0.0)

    def test_empty_tenants_fall_back_to_defaults(self):
        scenario = MultiTenantScenario(_dataset(), tenants={})
        assert set(scenario.tenants) == {"hot", "flat", "bursty"}

    def test_duration_must_be_positive(self):
        with pytest.raises(WorkloadError):
            MultiTenantScenario(_dataset(), duration=0.0)

    def test_attribution_covers_every_request(self):
        load = MultiTenantScenario(
            _dataset(), seed=4, duration=6e-3,
            tenants=FAST_OVERRIDES["multi_tenant"]["tenants"],
        ).build()
        assert len(load.tenant_of) == len(load.requests)
        assert set(load.tenant_of) == {"hot", "flat"}
        assert set(load.tenant_slos) == {"hot", "flat"}
        arrivals = [r.arrival_time for r in load.requests]
        assert arrivals == sorted(arrivals)


class TestColdStartFlood:
    def _scenario(self, **overrides):
        params = dict(
            base_rate=30_000.0, flood_start=4e-3, flood_duration=4e-3,
            cooldown=2e-3, flood_size=128, flood_share=1.0,
        )
        params.update(overrides)
        return ColdStartFloodScenario(_dataset(), seed=6, **params)

    def test_tail_ids_unseen_before_flood(self):
        scenario = self._scenario()
        load = scenario.build()
        lo = 2_000 - scenario.flood_size
        for request in load.requests:
            if request.arrival_time < scenario.flood_start:
                assert int(_ids_of(request).max()) < lo

    def test_flood_traffic_lands_on_tail_ids(self):
        scenario = self._scenario()
        load = scenario.build()
        lo = 2_000 - scenario.flood_size
        flood = [
            r for r in load.requests
            if scenario.flood_start
            <= r.arrival_time
            < scenario.flood_start + scenario.flood_duration
        ]
        assert flood
        for request in flood:
            assert int(_ids_of(request).min()) >= lo

    def test_update_log_publishes_tail_before_flood(self):
        scenario = self._scenario()
        load = scenario.build()
        log = load.update_log
        assert log is not None and len(log) == 1
        batch = log.read(0)
        assert batch.published_at < scenario.flood_start
        lo = 2_000 - scenario.flood_size
        assert len(batch.deltas) == 3
        for delta in batch.deltas:
            ids = np.asarray(delta.feature_ids, dtype=np.int64)
            assert ids.min() == lo and ids.max() == 2_000 - 1
            assert delta.vectors.shape == (scenario.flood_size, 8)

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            self._scenario(flood_size=0)
        with pytest.raises(WorkloadError):
            self._scenario(flood_size=2_000)
        with pytest.raises(WorkloadError):
            self._scenario(flood_share=0.0)


class TestValidateLoad:
    def _load(self, n=4, mutate=None):
        cube = np.zeros((n, 3, 1), dtype=np.uint64)
        requests = [
            Request(
                request_id=i, arrival_time=i * 1e-4,
                feature_ids=tuple(cube[i]), source=(cube, i),
            )
            for i in range(n)
        ]
        load = ScenarioLoad(
            requests=requests,
            phases=[Phase("p", 0.0, 1e-3, 1_000.0)],
        )
        if mutate:
            mutate(load, cube)
        return load

    def test_accepts_well_formed_load(self):
        validate_load(self._load(), _dataset())

    def test_rejects_non_positional_ids(self):
        def swap(load, cube):
            load.requests[1] = Request(
                request_id=7, arrival_time=1e-4,
                feature_ids=load.requests[1].feature_ids,
                source=(cube, 1),
            )
        with pytest.raises(WorkloadError, match="positional"):
            validate_load(self._load(mutate=swap), _dataset())

    def test_rejects_backwards_arrivals(self):
        def rewind(load, cube):
            load.requests[2] = Request(
                request_id=2, arrival_time=0.0,
                feature_ids=load.requests[2].feature_ids,
                source=(cube, 2),
            )
        with pytest.raises(WorkloadError, match="backwards"):
            validate_load(self._load(mutate=rewind), _dataset())

    def test_rejects_out_of_corpus_ids(self):
        def poison(load, cube):
            cube[0, 1, 0] = 1_000_000
        with pytest.raises(WorkloadError, match="outside corpus"):
            validate_load(self._load(mutate=poison), _dataset())

    @staticmethod
    def _cubeless(ids):
        requests = [
            Request(0, 0.0, (np.array([1], np.uint64),) * 3),
            Request(1, 1e-4, ids),
        ]
        return ScenarioLoad(
            requests=requests, phases=[Phase("p", 0.0, 1e-3, 1_000.0)],
        )

    def test_checks_the_ids_of_cubeless_requests(self):
        ok = (np.array([1_999], np.uint64),) * 3
        validate_load(self._cubeless(ok), _dataset())
        # A cube-less request among rows of a cube is checked too.
        load = self._load()
        load.requests[1] = Request(1, 1e-4, ok)
        validate_load(load, _dataset())
        bad = ok[:2] + (np.array([3, 2_000], np.uint64),)
        with pytest.raises(WorkloadError, match="request 1, field 2: id 2000"):
            validate_load(self._cubeless(bad), _dataset())
        load.requests[1] = Request(1, 1e-4, bad)
        with pytest.raises(WorkloadError, match="outside corpus"):
            validate_load(load, _dataset())

    def test_rejects_cubeless_requests_missing_a_field(self):
        with pytest.raises(WorkloadError, match="one id array per field"):
            validate_load(
                self._cubeless((np.array([1], np.uint64),) * 2), _dataset()
            )
        with pytest.raises(WorkloadError, match="one id array per field"):
            validate_load(self._cubeless(None), _dataset())

    def test_rejects_short_tenant_attribution(self):
        load = self._load()
        load.tenant_of = ["a"]
        with pytest.raises(WorkloadError, match="cover"):
            validate_load(load, _dataset())

    def test_rejects_nonpositive_tenant_slo(self):
        load = self._load()
        load.tenant_of = ["a"] * len(load.requests)
        load.tenant_slos = {"a": 0.0}
        with pytest.raises(WorkloadError, match="positive"):
            validate_load(load, _dataset())


class TestServing:
    def test_scenario_load_serves_end_to_end(self):
        hw = default_platform()
        dataset = _dataset(corpus=1_000, tables=2)
        store = EmbeddingStore(dataset.table_specs(), hw)
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=0.05), hw,
        )
        load = FlashCrowdScenario(
            dataset, seed=2, base_rate=25_000.0,
            storm_start=3e-3, storm_duration=3e-3, cooldown=2e-3,
        ).build()
        validate_load(load, dataset)
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=2,
            policy=BatchingPolicy(max_batch_size=128, max_delay=2e-4),
        )
        report = server.serve(load.requests)
        assert report.served == len(load.requests)
        assert report.hits + report.misses > 0


class TestScenarioDrill:
    def _run(self, crash):
        return run_scenario_drill(
            _dataset(corpus=1_000, tables=2),
            default_platform(),
            scenario="flash_crowd",
            seed=1,
            crash=crash,
            sla_budget=2e-3,
            base_rate=15_000.0,
            storm_start=3e-3,
            storm_duration=3e-3,
            cooldown=2e-3,
        )

    def test_no_crash_baseline(self):
        result = self._run(crash=False)
        assert result.victim is None
        assert result.report.served > 0
        assert 0.0 <= result.sla_attainment <= 1.0

    def test_crash_targets_hot_head_owner(self):
        result = self._run(crash=True)
        assert result.victim is not None
        assert 0 <= result.victim < 3
        assert 0.0 <= result.stress_sla_attainment <= 1.0
        assert result.report.served > 0
