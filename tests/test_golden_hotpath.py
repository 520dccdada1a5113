"""Golden byte-identity fixtures guarding the hot-path vectorization.

The PR-7 rewrite (vectorized miss table, grouped workflow phases,
vectorized router planning/merge, batched latency bookkeeping) must
change *nothing but speed*: metrics JSON, latency arrays, probabilities,
Chrome traces, and cluster dispositions are required to stay byte-for-
byte identical to the pre-rewrite implementation.  These tests pin
sha256 digests of those artifacts, captured from the pre-rewrite code,
over four deterministic scenarios:

- ``serving_pipelined``: a traced, collected depth-2 pipelined run
  (exercises the miss table, scheduler, workflow phases, registry).
- ``serving_sequential``: the same workload at depth 1.  Captured from
  the separate sequential loop the depth-1 configuration replaced; only
  its ``trace`` digest was re-pinned then (track ``lane0`` and ``queue``
  spans instead of the single ``serving`` track).
- ``cluster_fault_free``: a 3-replica hash-routed run with no faults
  (the router's vectorized fast path).
- ``cluster_faulty``: the same cluster under a crash + a slowdown with
  hedging enabled (the router's general fallback path).

Regenerate (only when an *intentional* behavior change lands)::

    PYTHONPATH=src python tests/test_golden_hotpath.py --write
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro import (
    DeepCrossNetwork, FlecheConfig, PrecisionConfig, SpanTracer,
    default_platform,
)
from repro.bench.harness import canonical_json
from repro.cluster import ClusterConfig, ClusterRouter
from repro.core.workflow import FlecheEmbeddingLayer
from repro.faults.schedule import (
    FaultSchedule, ReplicaCrash, ReplicaSlowdown,
)
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.obs import WindowedCollector, default_serving_slos
from repro.refresh import UpdateLog, UpdatePublisher
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.serving.server import InferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "hotpath_golden.json",
)

SLA_BUDGET = 2e-3


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(arr) -> str:
    return _sha(np.ascontiguousarray(arr).tobytes())


def _json_digest(payload) -> str:
    return _sha(canonical_json(payload).encode())


def _serving_fixture(hw, cls, precision=None, **kwargs):
    """One deterministic serving run; shared by both serving scenarios."""
    dataset = uniform_tables_spec(
        num_tables=6, corpus_size=12_000, alpha=-1.2, dim=16,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    config = (
        FlecheConfig(cache_ratio=0.05)
        if precision is None
        else FlecheConfig(cache_ratio=0.05, precision=precision)
    )
    layer = FlecheEmbeddingLayer(store, config, hw)
    model = DeepCrossNetwork(
        num_tables=dataset.num_tables, embedding_dim=dataset.dim,
    )
    tracer = SpanTracer()
    collector = WindowedCollector(
        window=1e-3, sla_budget=SLA_BUDGET,
        engine=default_serving_slos(SLA_BUDGET),
    )
    server = cls(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=128, max_delay=5e-4),
        model=model, include_dense=True, **kwargs,
    )
    server.observers += [tracer, collector]
    warm = PoissonArrivals(dataset, 200_000.0, seed=1).generate(200)
    server.serve(warm)
    tracer.clear()
    reqs = PoissonArrivals(dataset, 1_500_000.0, seed=2).generate(600)
    report = server.serve(reqs)
    return {
        "metrics": _json_digest(report.metrics.to_dict()),
        "latencies": _array_digest(report.latencies),
        "probabilities": _array_digest(report.probabilities),
        "trace": _json_digest(tracer.to_chrome_trace()),
        "series": _json_digest(collector.to_payload()),
        "hits": int(report.hits),
        "misses": int(report.misses),
        "unified_hits": int(report.unified_hits),
        "coalesced_keys": int(report.coalesced_keys),
        "p99_s": float(report.p99_latency),
    }


def scenario_serving_pipelined(hw):
    return _serving_fixture(hw, PipelinedInferenceServer, depth=2)


def scenario_serving_sequential(hw):
    return _serving_fixture(hw, InferenceServer)


def _cluster_fixture(hw, schedule=None, hedge_delay=None):
    """One deterministic 3-replica cluster run."""
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
    )
    horizon = 0.02
    log = UpdateLog(retention=1_000_000)
    publisher = UpdatePublisher(log, max_batch_keys=512)
    trainer = EmbeddingDeltaTrainer(
        [spec.corpus_size for spec in dataset.table_specs()],
        [spec.dim for spec in dataset.table_specs()],
        keys_per_round=96, seed=11,
    )
    for i in range(2):
        publisher.drain(trainer, now=horizon * (i + 1) / 3)
    requests = PoissonArrivals(dataset, 60_000.0, seed=7).generate_until(
        horizon
    )
    router = ClusterRouter(
        dataset, hw,
        ClusterConfig(
            num_replicas=3, policy="hash", hot_keys=64,
            hedge_delay=hedge_delay,
        ),
        schedule=schedule, update_log=log, warm_seed=7,
    )
    report = router.serve(requests)
    return {
        "metrics": _json_digest(report.metrics.to_dict()),
        "latencies": _array_digest(report.latencies),
        "dispositions": _sha("|".join(report.dispositions).encode()),
        "disposition_counts": {
            k: int(v) for k, v in sorted(
                report.disposition_counts().items()
            )
        },
        "served": int(report.served),
        "shed": int(report.shed),
        "p99_s": float(report.percentile(99)),
    }


def scenario_cluster_fault_free(hw):
    return _cluster_fixture(hw)


def scenario_cluster_faulty(hw):
    schedule = FaultSchedule([
        ReplicaCrash(replica=0, start=0.006, duration=0.008),
        ReplicaSlowdown(
            replica=1, start=0.004, duration=0.010, factor=6.0,
        ),
    ])
    return _cluster_fixture(hw, schedule=schedule, hedge_delay=5e-4)


SCENARIOS = {
    "serving_pipelined": scenario_serving_pipelined,
    "serving_sequential": scenario_serving_sequential,
    "cluster_fault_free": scenario_cluster_fault_free,
    "cluster_faulty": scenario_cluster_faulty,
}


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):  # pragma: no cover
        pytest.skip("golden fixture missing; run --write to generate")
    return _load_golden()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hotpath_golden(name, golden):
    hw = default_platform()
    actual = SCENARIOS[name](hw)
    expected = golden[name]
    mismatched = {
        key: (expected[key], actual[key])
        for key in expected
        if actual.get(key) != expected[key]
    }
    assert not mismatched, (name, mismatched)


def test_pinned_fp32_matches_prepr_golden(golden):
    """The all-fp32 split is the one-tier case of the tiered cache.

    A precision config with every tier pinned to fp32 (and pure-LRU
    eviction), which is the default, must serve exactly as the cache did
    before precision tiers existed: the depth-2 pipelined serving run is
    required to be byte-identical — metrics JSON, latency arrays,
    probabilities, traces — to the ``serving_pipelined`` golden entry
    recorded then, and no ``precision.*`` metric may appear anywhere.
    """
    hw = default_platform()
    pinned = PrecisionConfig(
        fp32_share=1.0, fp16_share=0.0, int8_share=0.0,
        eviction_policy="lru",
    )
    assert not pinned.quantizing
    actual = _serving_fixture(
        hw, PipelinedInferenceServer, depth=2, precision=pinned,
    )
    expected = golden["serving_pipelined"]
    mismatched = {
        key: (expected[key], actual[key])
        for key in expected
        if actual.get(key) != expected[key]
    }
    assert not mismatched, mismatched


def test_pinned_fp32_emits_no_precision_metrics():
    hw = default_platform()
    pinned = PrecisionConfig(
        fp32_share=1.0, fp16_share=0.0, int8_share=0.0,
    )
    report_payload = _serving_fixture(
        hw, InferenceServer, precision=pinned,
    )
    del report_payload  # digests checked by the golden test above
    # Direct registry check on a fresh layer-level run.
    dataset = uniform_tables_spec(
        num_tables=3, corpus_size=4_000, alpha=-1.2, dim=16,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, precision=pinned), hw,
    )
    snap = layer.cache.obs.snapshot()
    names = [n for (n, _) in snap.counters] + [n for (n, _) in snap.gauges]
    assert not any(n.startswith("precision.") for n in names)


def main(argv=None):  # pragma: no cover - regeneration entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the golden fixture from the current code",
    )
    args = parser.parse_args(argv)
    hw = default_platform()
    payload = {name: fn(hw) for name, fn in sorted(SCENARIOS.items())}
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload))
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(canonical_json(payload), end="")


if __name__ == "__main__":  # pragma: no cover
    main()
