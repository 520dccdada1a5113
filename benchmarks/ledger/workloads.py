"""The four ledger workloads, built from ``repro``'s public API.

Every workload is a ladder of three rungs — ``lo``, ``ref``, ``sat`` —
offered open-loop on the *simulated* clock: Poisson arrivals at a fixed
rate, each request's latency counted from its scheduled arrival (the
generator is part of the simulation, so it is never late).  A rung holds
its request list and a ``restore`` callable that returns a fresh copy of
the warmed serving state, so every pass over the ladder starts from the
same bits and must reproduce the same outputs.

Sizes and rates are frozen: they are part of the metric definitions.
``scale`` exists only for ``run.py --selftest``.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro import DeepCrossNetwork, FlecheConfig, default_platform
from repro.baselines.no_cache import NoCacheLayer
from repro.baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from repro.cluster import ClusterConfig, ClusterRouter, hot_head_victim
from repro.coding import collision_stats
from repro.core.workflow import FlecheEmbeddingLayer
from repro.faults import (
    BreakerConfig,
    DegradeConfig,
    FaultInjector,
    FaultSchedule,
    ReplicaCrash,
    RetryPolicy,
    ShardOutage,
)
from repro.model.trainer import EmbeddingDeltaTrainer
from repro.multitier.hierarchy import TieredParameterStore
from repro.multitier.remote_ps import RemoteParameterServer
from repro.refresh import (
    RefreshScheduler,
    UpdateLog,
    UpdatePublisher,
    UpdateSubscriber,
)
from repro.serving.arrivals import Request
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec
from repro.workloads.zipf import ZipfSampler

#: The latency limit every workload is held to: P99 <= 2 ms.
SLA_S = 2e-3
US = 1e-6
#: Requests of the fixed sample the value oracle replays.
ORACLE_SAMPLE = 512

#: The ``resilient`` fetch policy: retry + hedge + per-shard breaker.
RESILIENT = dict(
    retry_policy=RetryPolicy(
        max_attempts=3, attempt_timeout=400 * US, backoff_base=50 * US,
        backoff_cap=400 * US, jitter=0.2, hedge_delay=150 * US,
    ),
    breaker=BreakerConfig(
        failure_threshold=0.5, window=8, min_samples=4, cooldown=5_000 * US,
    ),
)


@dataclass
class Rung:
    """One offered rate of a workload's ladder."""

    name: str
    rate: float
    requests: list
    #: Untimed: a fresh copy of the warmed serving state (server or router).
    restore: Callable[[], object]


@dataclass
class Workload:
    name: str
    rungs: List[Rung]
    #: Wall seconds setup spent generating request lists.
    gen_s: float = 0.0
    #: What the value oracle / baseline comparison need (serve_* only).
    parts: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """One rung's served result, normalised over server and router reports."""

    latencies: np.ndarray  # seconds; inf = shed
    span: float
    degraded: int
    shed: int
    digest_parts: List[bytes]
    report: object
    #: True for a ``ClusterReport``, False for a ``ServingReport``.
    cluster: bool = False

    @property
    def sent(self) -> int:
        return len(self.latencies)


def outcome_of(report) -> Outcome:
    """Normalise a ``ServingReport`` or ``ClusterReport``."""
    latencies = np.asarray(report.latencies, dtype=np.float64)
    parts = [latencies.tobytes()]
    if hasattr(report, "dispositions"):  # ClusterReport
        served = np.isfinite(latencies)
        finish = report.arrival_times[served] + latencies[served]
        span = float(finish.max() - report.arrival_times.min())
        parts.append(",".join(report.dispositions).encode())
        parts.append(repr(sorted(
            (r, s["dispatched"], s.get("applied_version"))
            for r, s in report.per_replica.items()
        )).encode())
        return Outcome(latencies, span, 0, report.shed, parts, report, True)
    if report.probabilities is not None:
        parts.append(np.asarray(report.probabilities).tobytes())
    parts.append(repr((
        report.hits, report.misses, report.unified_hits,
        report.coalesced_keys, report.degraded_requests,
    )).encode())
    return Outcome(
        latencies, report.span, report.degraded_requests, 0, parts, report
    )


def digest_of(outcomes: List[Outcome]) -> str:
    """sha256 over a pass's latencies, probabilities, hit/miss counts and
    dispositions, rung by rung."""
    sha = hashlib.sha256()
    for outcome in outcomes:
        for part in outcome.digest_parts:
            sha.update(part)
    return sha.hexdigest()


#: Seed of the dataset's popularity structure (which ids are hot, hence
#: which replica owns the Zipf head) and of the trainer's update stream.
#: It is fixed: ``--seed`` draws the *traffic* over that dataset — arrival
#: times and the ids each request asks for — so runs on different seeds
#: differ by sampling only, not by which cluster replica carries the head.
#: 0 also makes the trainer's samplers (seed * 37 + t) share the traffic's
#: permutation (seed * 31 + t), so published updates hit the ids being read.
STRUCTURE_SEED = 0


class _Generator:
    """Poisson request streams over the fixed dataset structure.

    The same process as ``PoissonArrivals.generate`` — exponential gaps,
    per-field Zipf draws gathered into one id cube — but drawing from one
    ``--seed``-derived generator through ``ZipfSampler.sample(rng=...)``,
    which is what lets the popularity permutation stay fixed.  Times the
    generation: it is the largest part of some setups.
    """

    def __init__(self, dataset, seed: int):
        self.dataset = dataset
        self.seed = seed
        self.seconds = 0.0
        self.samplers = [
            ZipfSampler(f.corpus_size, f.alpha, seed=STRUCTURE_SEED * 31 + i)
            for i, f in enumerate(dataset.fields)
        ]

    def requests(self, rate: float, count: int) -> List[Request]:
        """The first ``count`` requests at ``rate``.  Every call restarts
        the generator, so two rates offer the same request sequence (same
        ids, gaps scaled): rate is then the only variable of a ladder."""
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        times = np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()
        k = self.dataset.ids_per_field
        cube = np.stack(
            [s.sample(count * k, rng=rng).reshape(count, k)
             for s in self.samplers],
            axis=1,
        )
        requests = [
            Request(i, times[i], tuple(cube[i]), source=(cube, i))
            for i in range(count)
        ]
        self.seconds += time.perf_counter() - start
        return requests

    def stream(self, rate: float, warm: int, count: int):
        """``(warm prefix, measured suffix re-based to start at t = 0)`` —
        a suffix of a Poisson process is a Poisson process."""
        requests = self.requests(rate, warm + count)
        t0 = requests[warm - 1].arrival_time
        measured = [
            dataclasses.replace(r, arrival_time=r.arrival_time - t0)
            for r in requests[warm:]
        ]
        return requests[:warm], measured

    def until(self, rate: float, horizon: float) -> List[Request]:
        """Every request arriving before ``horizon`` seconds."""
        count = int(rate * horizon * 1.1) + 64
        requests = self.requests(rate, count)
        if requests[-1].arrival_time < horizon:
            raise RuntimeError("arrival stream ended before the horizon")
        return [r for r in requests if r.arrival_time < horizon]


def _cloner(proto, shared) -> Callable[[], object]:
    """``restore`` for a single server: deep-copy the warmed prototype,
    sharing only the objects serving never mutates."""
    memo = {id(obj): obj for obj in shared}
    return lambda: copy.deepcopy(proto, dict(memo))


def _scaled(count: int, scale: float, floor: int = 64) -> int:
    return max(floor, int(count * scale))


# ---------------------------------------------------------------------------
# serve_hot / serve_cold: one replica, flat cache over the host store
# ---------------------------------------------------------------------------

#: Requests served before the ladder so the cache holds the stream's own
#: hot set (same popularity permutation as the measured requests).
SERVE_WARM = 2_000

SERVE_SHAPES = {
    "serve_hot": dict(
        dataset=dict(num_tables=12, corpus_size=50_000, alpha=-1.3, dim=32),
        cache_ratio=0.05,
        rates=(200_000, 800_000, 2_400_000),
        requests=20_000,
    ),
    "serve_cold": dict(
        dataset=dict(num_tables=8, corpus_size=200_000, alpha=-0.9, dim=64),
        cache_ratio=0.01,
        # Knee ~ 830 K req/s (host thread).  sat was retuned once, from
        # 1.2 M to 1.8 M: at 1.4 x the knee the backlog crosses 2 ms so
        # late that goodput swung 5.7 % (quartile distance over median)
        # between seeds; at 2.2 x it is 2.0 %.
        rates=(200_000, 600_000, 1_800_000),
        requests=20_000,
    ),
}


def build_serve(name: str, seed: int, scale: float = 1.0) -> Workload:
    shape = SERVE_SHAPES[name]
    hw = default_platform()
    dataset = uniform_tables_spec(**shape["dataset"])
    gen = _Generator(dataset, seed)
    store = EmbeddingStore(dataset.table_specs(), hw)
    model = DeepCrossNetwork(
        num_tables=dataset.num_tables, embedding_dim=dataset.dim
    )
    policy = BatchingPolicy(max_batch_size=512, max_delay=5e-4)
    config = FlecheConfig(cache_ratio=shape["cache_ratio"])
    proto = PipelinedInferenceServer(
        dataset, FlecheEmbeddingLayer(store, config, hw), hw, depth=2,
        policy=policy, model=model, include_dense=True,
    )
    warm_n = _scaled(SERVE_WARM, scale)
    count = _scaled(shape["requests"], scale, floor=ORACLE_SAMPLE)
    rungs = []
    warm = None
    for rung_name, rate in zip(("lo", "ref", "sat"), shape["rates"]):
        prefix, measured = gen.stream(rate, warm_n, count)
        rungs.append(Rung(rung_name, float(rate), measured, restore=None))
        if rung_name == "ref":
            warm = prefix
    proto.serve(warm)
    # The store's rows are pure functions of (table, id): share them.  The
    # model is copied with the server so its forward memo starts every
    # pass in the same state.
    restore = _cloner(proto, (store, hw, dataset))
    for rung in rungs:
        rung.restore = restore
    return Workload(
        name, rungs, gen.seconds,
        parts=dict(dataset=dataset, store=store, hw=hw, policy=policy,
                   model=model, config=config, warm=warm),
    )


def _dense_server(parts, scheme):
    """A depth-2 server over ``scheme`` with its own copy of the model."""
    return PipelinedInferenceServer(
        parts["dataset"], scheme, parts["hw"], depth=2,
        policy=parts["policy"], model=copy.deepcopy(parts["model"]),
        include_dense=True,
    )


def oracle_check(workload: Workload) -> dict:
    """CTR probabilities of a fixed sample vs the no-cache reference.

    The first ``ORACLE_SAMPLE`` requests of ``ref`` are served by a
    restored Fleche server and by a server over ``NoCacheLayer`` (every
    lookup answered by the host store).  Same requests and batching
    policy give the same batches, so the probabilities must agree bit
    for bit (the cache is fp32: precision tiering is off).  Requests
    touching a flat key the codec maps two ids onto are excluded.
    """
    parts = workload.parts
    ref = next(r for r in workload.rungs if r.name == "ref")
    sample = ref.requests[:ORACLE_SAMPLE]
    server = ref.restore()
    codec = server.scheme.cache.codec
    cached = server.serve(sample).probabilities
    reference = _dense_server(
        parts, NoCacheLayer(parts["store"], parts["hw"])
    ).serve(sample).probabilities

    ids = [
        np.concatenate([r.feature_ids[t] for r in sample])
        for t in range(parts["dataset"].num_tables)
    ]
    keep = np.ones(len(sample), dtype=bool)
    if collision_stats(codec, ids).total_rate > 0:
        for t, table_ids in enumerate(ids):
            distinct = np.unique(table_ids)
            keys = codec.encode(t, distinct)
            _, inverse, counts = np.unique(
                keys, return_inverse=True, return_counts=True
            )
            collided = distinct[counts[inverse] > 1]
            for i, request in enumerate(sample):
                if np.isin(request.feature_ids[t], collided).any():
                    keep[i] = False
    mismatched = int(
        (np.asarray(cached)[keep] != np.asarray(reference)[keep]).sum()
    )
    return {
        "checked": int(keep.sum()),
        "excluded": int((~keep).sum()),
        "mismatched": mismatched,
    }


def baseline_goodput(workload: Workload) -> float:
    """Goodput of the per-table (HugeCTR-style) cache on the ``sat`` rung."""
    parts = workload.parts
    sat = next(r for r in workload.rungs if r.name == "sat")
    server = _dense_server(parts, PerTableCacheLayer(
        parts["store"],
        PerTableConfig(cache_ratio=parts["config"].cache_ratio),
        parts["hw"],
    ))
    server.serve(parts["warm"])
    outcome = outcome_of(server.serve(sat.requests))
    return float((outcome.latencies <= SLA_S).sum() / outcome.span)


# ---------------------------------------------------------------------------
# refresh_tiered: DRAM tier over a faulty remote PS, with online updates
# ---------------------------------------------------------------------------

REFRESH_SHAPE = dict(
    dataset=dict(num_tables=8, corpus_size=20_000, alpha=-1.2, dim=32),
    # (rate, requests): lo is cut to 4 000 requests — at 20 K req/s the
    # batches hold ~11 requests, so 8 000 would cost half the pass's host
    # time on the rung no end-to-end metric reads.
    rungs=((20_000, 4_000), (40_000, 8_000), (300_000, 8_000)),
    # Below 0.4 x the shortest rung, so warming ends before any outage.
    warm=800,
    shards=4,
    rounds=48,
    keys_per_round=192,
)


def build_refresh_tiered(seed: int, scale: float = 1.0) -> Workload:
    shape = REFRESH_SHAPE
    hw = default_platform()
    dataset = uniform_tables_spec(**shape["dataset"])
    gen = _Generator(dataset, seed)
    specs = dataset.table_specs()
    model = DeepCrossNetwork(
        num_tables=dataset.num_tables, embedding_dim=dataset.dim
    )
    warm_n = _scaled(shape["warm"], scale, floor=32)
    rungs = []
    for rung_name, (rate, count) in zip(("lo", "ref", "sat"), shape["rungs"]):
        warm, measured = gen.stream(
            rate, warm_n, _scaled(count, scale, floor=128)
        )
        horizon = measured[-1].arrival_time
        # Every shard is out for 20 % of the horizon, starting at 40 %.
        outage = [
            ShardOutage(shard=s, start=0.4 * horizon, duration=0.2 * horizon)
            for s in range(shape["shards"])
        ]
        remote = RemoteParameterServer(
            specs,
            injector=FaultInjector(FaultSchedule(outage), seed=seed),
            **RESILIENT,
        )
        store = TieredParameterStore(
            specs, hw, dram_capacity=1_200, remote=remote,
            degrade=DegradeConfig(policy="stale"),
        )
        layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
        server = PipelinedInferenceServer(
            dataset, layer, hw, depth=2,
            policy=BatchingPolicy(max_batch_size=256, max_delay=5e-4),
            model=model, include_dense=True,
        )
        server.serve(warm)
        log = UpdateLog(retention=1_000_000)
        publisher = UpdatePublisher(log, max_batch_keys=512)
        publisher.bind_observability(server.obs)
        trainer = EmbeddingDeltaTrainer(
            [s.corpus_size for s in specs], [s.dim for s in specs],
            keys_per_round=shape["keys_per_round"], seed=STRUCTURE_SEED,
        )
        for i in range(shape["rounds"]):
            publisher.drain(
                trainer, now=horizon * (i + 1) / (shape["rounds"] + 1)
            )
        subscriber = UpdateSubscriber(log, layer.cache, host_store=store)
        subscriber.bind_observability(server.obs)
        server.refresher = RefreshScheduler(subscriber, hw, quantum_keys=512)
        rungs.append(Rung(
            rung_name, float(rate), measured,
            restore=_cloner(server, (hw, dataset, log)),
        ))
    return Workload("refresh_tiered", rungs, gen.seconds)


# ---------------------------------------------------------------------------
# cluster_kill: 4 replicas behind the router, the hot-head owner crashed
# ---------------------------------------------------------------------------

CLUSTER_SHAPE = dict(
    dataset=dict(num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16),
    # (rate, horizon seconds): about 13 K / 32 K / 48 K requests.
    rungs=((160_000, 0.08), (800_000, 0.04), (9_600_000, 0.005)),
    replicas=4,
    hot_keys=256,
    rounds=40,
    keys_per_round=64,
)


def build_cluster_kill(seed: int, scale: float = 1.0) -> Workload:
    shape = CLUSTER_SHAPE
    hw = default_platform()
    dataset = uniform_tables_spec(**shape["dataset"])
    gen = _Generator(dataset, seed)
    specs = dataset.table_specs()
    victim = hot_head_victim(dataset, STRUCTURE_SEED, shape["replicas"])
    config = ClusterConfig(
        num_replicas=shape["replicas"], policy="hash",
        hot_keys=shape["hot_keys"], breaker=RESILIENT["breaker"],
    )
    rungs = []
    for rung_name, (rate, horizon) in zip(("lo", "ref", "sat"), shape["rungs"]):
        horizon *= scale
        requests = gen.until(rate, horizon)
        log = UpdateLog(retention=1_000_000)
        publisher = UpdatePublisher(log, max_batch_keys=512)
        trainer = EmbeddingDeltaTrainer(
            [s.corpus_size for s in specs], [s.dim for s in specs],
            keys_per_round=shape["keys_per_round"], seed=STRUCTURE_SEED,
        )
        for i in range(shape["rounds"]):
            publisher.drain(
                trainer, now=horizon * (i + 1) / (shape["rounds"] + 1)
            )
        # The owner of the Zipf head is down from 30 % to 80 % of the run.
        schedule = FaultSchedule([ReplicaCrash(
            replica=victim, start=0.3 * horizon, duration=0.5 * horizon,
        )])

        def fresh_router(schedule=schedule, log=log):
            # A crash rebuilds replicas in place, so a served router is
            # spent: every pass gets a newly admitted one.
            return ClusterRouter(
                dataset, hw, config, schedule=schedule, update_log=log,
                warm_seed=STRUCTURE_SEED,
            )

        rungs.append(Rung(rung_name, float(rate), requests, fresh_router))
    return Workload("cluster_kill", rungs, gen.seconds)


BUILDERS: Dict[str, Callable[..., Workload]] = {
    "serve_hot": functools.partial(build_serve, "serve_hot"),
    "serve_cold": functools.partial(build_serve, "serve_cold"),
    "refresh_tiered": build_refresh_tiered,
    "cluster_kill": build_cluster_kill,
}
