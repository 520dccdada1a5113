"""Layer-level micro-benchmarks for the vectorized serving hot path.

The end-to-end depth sweep (``bench_serving_sla.py``) can hide a single
layer regressing — a 2x slower miss table is noise next to the dense
GEMMs.  These micro-benchmarks time each vectorized unit in isolation:

- **miss table**: ``InFlightMissTable`` publish/match/retire cycles
  (keys/s through the whole lifecycle);
- **workflow**: ``FlecheEmbeddingLayer.query`` replaying one steady-state
  batch (batches/s through encode/dedup/index/fetch/copy — phases 1-4);
- **router**: the cluster router's array planner plus
  :func:`~repro.cluster.router.plan_primary_streams` over one arrival
  stream, fault-free and with a replica crashed (requests planned/s);
- **slab insert**: ``SlabHashIndex.insert`` of replica-sized batches
  into a full index, evicting (keys/s);
- **demote**: the unified-index tuner's grow step,
  ``FlatCache.set_unified_capacity`` turning cold entries into DRAM
  pointers slot by slot (demoted keys/s);
- **refresh apply**: ``UpdateSubscriber.catch_up`` over a log of
  four-table batches, one fused apply each (log keys/s).

``--pin`` rewrites the pinned ``BENCH_hotpath_micro_baseline.json``;
``check_regression.py`` fails CI when any unit drops below
``min_fraction`` of its pinned throughput.  Workloads are deterministic
(fixed seeds); only the measured rates vary run to run.
"""

import argparse
import copy
import sys
import time

import numpy as np

from repro import FlecheConfig, default_platform
from repro.bench.reporting import (
    emit, emit_json, format_rate, format_table, load_artifact,
)
from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.router import plan_primary_streams
from repro.core.flat_cache import FlatCache
from repro.core.workflow import FlecheEmbeddingLayer
from repro.faults import BreakerConfig, FaultSchedule, ReplicaCrash
from repro.faults.retry import CircuitBreaker
from repro.gpusim.executor import Executor
from repro.hashindex.slab_hash import SlabHashIndex
from repro.refresh import UpdateLog, UpdateSubscriber
from repro.serving.arrivals import PoissonArrivals
from repro.serving.pipeline import InFlightMissTable
from repro.tables.embedding_table import reference_vectors
from repro.tables.store import EmbeddingStore
from repro.tables.table_spec import make_table_specs
from repro.workloads.synthetic import synthetic_dataset, uniform_tables_spec

#: Candidate throughput below ``min_fraction`` x pinned fails the gate.
#: Loose on purpose: it absorbs CI-machine variance (the suite has seen
#: +-15% run-to-run on one box), not a vectorization regression, which
#: shows up as 5-20x.
MIN_FRACTION = 0.4


def run_miss_table_micro(dim=32, keys_per_round=4_096, rounds=48):
    """Publish/match/retire cycles; returns keys/s plus op counts."""
    rng = np.random.default_rng(7)
    table = InFlightMissTable()
    # Two live segments at all times: each round matches against the
    # previous round's segment (half hits, half fresh misses) before
    # publishing its own and retiring the previous owner.
    prev_keys = rng.integers(0, 1 << 40, size=keys_per_round, dtype=np.uint64)
    table.set_owner(-1)
    table.publish(prev_keys, np.zeros((keys_per_round, dim), np.float32))
    total_keys = 0
    started = time.perf_counter()
    for r in range(rounds):
        fresh = rng.integers(0, 1 << 40, size=keys_per_round, dtype=np.uint64)
        probe = np.concatenate([prev_keys[::2], fresh[: keys_per_round // 2]])
        mask, _rows, _deg = table.match(probe, dim)
        table.set_owner(r)
        table.publish(fresh, np.zeros((keys_per_round, dim), np.float32))
        table.retire(r - 1)
        total_keys += probe.size + fresh.size
        prev_keys = fresh
    elapsed = time.perf_counter() - started
    assert mask.size == keys_per_round  # last probe, half matched
    return {
        "keys_per_s": total_keys / elapsed,
        "keys": total_keys,
        "rounds": rounds,
        "elapsed_s": elapsed,
    }


def run_workflow_micro(hw, batch_size=4_096, rounds=32):
    """Steady-state ``FlecheEmbeddingLayer.query`` batches/s."""
    dataset = uniform_tables_spec(
        num_tables=8, corpus_size=40_000, alpha=-1.2, dim=32,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    executor = Executor(hw)
    trace = synthetic_dataset(dataset, num_batches=4, batch_size=batch_size)
    batches = list(trace)
    for batch in batches:  # warm: materialise rows, fill the cache
        layer.query(batch, executor)
    steady = batches[-1]
    started = time.perf_counter()
    for _ in range(rounds):
        layer.query(steady, executor)
    elapsed = time.perf_counter() - started
    return {
        "batches_per_s": rounds / elapsed,
        "keys_per_s": rounds * steady.total_ids / elapsed,
        "batch_size": batch_size,
        "rounds": rounds,
        "elapsed_s": elapsed,
    }


def run_router_micro(hw, num_replicas=8, num_requests=20_000, rounds=6):
    """Dispatch planning plans/s: policy, array planner, stream grouping.

    Each round plans the same arrival stream twice through the router's
    one planner — on an empty fault schedule, and with one replica
    crashed mid-stream so the lost-send / breaker / failover masks and
    the ring walk all run — then groups the planned rows into streams.
    """
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=20_000, alpha=-1.2, dim=16,
    )
    requests = PoissonArrivals(dataset, 1_000_000.0, seed=11).generate(
        num_requests
    )
    arrivals = np.fromiter(
        (r.arrival_time for r in requests), np.float64, count=num_requests
    )
    request_ids = np.fromiter(
        (r.request_id for r in requests), np.int64, count=num_requests
    )
    horizon = float(arrivals[-1])
    config = ClusterConfig(
        num_replicas=num_replicas, policy="hash", hot_keys=0,
        breaker=BreakerConfig(),
    )
    schedules = {
        "fault_free": FaultSchedule(),
        "crash": FaultSchedule([ReplicaCrash(
            replica=0, start=0.3 * horizon, duration=0.5 * horizon,
        )]),
    }
    elapsed = {}
    for name, schedule in schedules.items():
        router = ClusterRouter(dataset, hw, config, schedule=schedule)
        _, episodes = router._detect(arrivals)
        started = time.perf_counter()
        for _ in range(rounds):
            router.breakers = {
                r: CircuitBreaker(config.breaker) for r in range(num_replicas)
            }
            owners = router.policy.primary_many(requests)
            table = router._plan_arrays(owners, arrivals, episodes)
            plans = plan_primary_streams(
                table.replica * 2 + table.incarnation, table.at,
                request_ids[table.index],
            )
        elapsed[name] = time.perf_counter() - started
        planned = sum(m.size for m in plans.values())
        assert planned == len(table.index) >= num_requests * 0.9
    total = sum(elapsed.values())
    return {
        "plans_per_s": len(schedules) * rounds * num_requests / total,
        "fault_free_plans_per_s": rounds * num_requests / elapsed["fault_free"],
        "crash_plans_per_s": rounds * num_requests / elapsed["crash"],
        "replicas": num_replicas,
        "requests": num_requests,
        "rounds": rounds,
        "elapsed_s": total,
    }


#: Shape of one ``cluster_kill`` replica: 4 tables of 20 000 ids at
#: dim 16 under a 5 % cache — ~2.7 K pool slots, ~5 K index slots — and
#: batches of <= 64 requests.
REPLICA_TABLES = 4
REPLICA_CORPUS = 20_000
REPLICA_DIM = 16


def _replica_cache(fill_rounds=40):
    """``(cache, per-table ids offered to it)``: a flat cache of that
    shape, filled past its eviction watermark."""
    cache = FlatCache(
        make_table_specs(
            [REPLICA_CORPUS] * REPLICA_TABLES, [REPLICA_DIM] * REPLICA_TABLES
        ),
        FlecheConfig(cache_ratio=0.05),
    )
    rng = np.random.default_rng(3)
    offered = [[] for _ in range(REPLICA_TABLES)]
    for _ in range(fill_rounds):
        cache.tick()
        for table in range(REPLICA_TABLES):
            ids = np.unique(rng.integers(
                0, REPLICA_CORPUS, size=48, dtype=np.uint64
            ))
            keys = cache.encode(table, ids)
            fresh = ~cache.contains_cached(keys)
            cache.admit_and_insert(
                keys[fresh],
                reference_vectors(table, ids[fresh], REPLICA_DIM),
                REPLICA_DIM,
            )
            offered[table].append(ids)
    cache.tick()
    cache.tick()
    return cache, [np.concatenate(ids) for ids in offered]


def run_slab_insert_micro(batch=48, rounds=2_000):
    """``SlabHashIndex.insert`` keys/s on a full, evicting index."""
    rng = np.random.default_rng(5)
    index = SlabHashIndex(capacity=3_600)
    batches = [
        np.unique(rng.integers(0, 1 << 40, size=batch, dtype=np.uint64))
        for _ in range(rounds)
    ]
    for stamp, keys in enumerate(batches[:200]):  # fill every slab
        index.insert(keys, keys, stamp=stamp)
    total = 0
    round_total = 0
    started = time.perf_counter()
    for stamp, keys in enumerate(batches[200:], start=200):
        result = index.insert(keys, keys, stamp=stamp)
        total += len(keys)
        round_total += int(result.stats.dependent_hops)
    elapsed = time.perf_counter() - started
    return {
        "keys_per_s": total / elapsed,
        "keys": total,
        "mean_rounds": round_total / (rounds - 200),
        "batch": batch,
        "elapsed_s": elapsed,
    }


def run_demote_micro(step=8, rounds=150, repeats=6):
    """Cold entries turned into DRAM pointers per second, ``step`` per
    tuner decision, over an index a replica's size."""
    proto, _ = _replica_cache()
    proto.set_unified_capacity(0)
    demoted = 0
    elapsed = 0.0
    for _ in range(repeats):
        cache = copy.deepcopy(proto)
        started = time.perf_counter()
        for _ in range(rounds):
            cache.set_unified_capacity(cache.unified_entries + step)
        elapsed += time.perf_counter() - started
        demoted += cache.unified_entries
    assert demoted == step * rounds * repeats
    return {
        "keys_per_s": demoted / elapsed,
        "keys": demoted,
        "index_entries": len(proto.index),
        "step": step,
        "elapsed_s": elapsed,
    }


def run_refresh_apply_micro(hw, batches=400, keys_per_table=16):
    """Log keys/s through ``UpdateSubscriber.catch_up``: every batch
    carries one delta per table and is applied in one fused pass.  Half
    of each delta's ids were offered to the cache (so they are cached,
    demoted to DRAM pointers, or evicted), half are drawn from the whole
    corpus."""
    cache, offered = _replica_cache()
    cache.set_unified_capacity(400)
    rng = np.random.default_rng(9)
    half = keys_per_table // 2
    log = UpdateLog(retention=batches)
    for version in range(batches):
        log.append(version + 1, {
            table: (
                np.concatenate((
                    rng.choice(offered[table], size=half),
                    rng.integers(
                        0, REPLICA_CORPUS, size=keys_per_table - half,
                        dtype=np.uint64,
                    ),
                )),
                rng.random((keys_per_table, REPLICA_DIM), dtype=np.float32),
            )
            for table in range(REPLICA_TABLES)
        })
    subscriber = UpdateSubscriber(log, cache)
    executor = Executor(hw)
    started = time.perf_counter()
    applied = subscriber.catch_up(1.0, executor=executor)
    elapsed = time.perf_counter() - started
    assert applied == batches
    keys = subscriber.status()["applied_keys"]
    return {
        "keys_per_s": keys / elapsed,
        "keys": keys,
        "batches": batches,
        "refreshed_keys": int(subscriber.obs.total("refresh.refreshed_keys")),
        "invalidated_keys": int(
            subscriber.obs.total("refresh.invalidated_keys")
        ),
        "elapsed_s": elapsed,
    }


#: unit -> headline metric key.
UNITS = (
    ("miss_table", "keys_per_s"),
    ("workflow", "batches_per_s"),
    ("router", "plans_per_s"),
    ("slab_insert", "keys_per_s"),
    ("demote", "keys_per_s"),
    ("refresh_apply", "keys_per_s"),
)


def run_micro(hw):
    """All units; returns ``unit -> result dict``."""
    return {
        "miss_table": run_miss_table_micro(),
        "workflow": run_workflow_micro(hw),
        "router": run_router_micro(hw),
        "slab_insert": run_slab_insert_micro(),
        "demote": run_demote_micro(),
        "refresh_apply": run_refresh_apply_micro(hw),
    }


def emit_micro(results, baseline=None):
    rows = []
    for unit, metric in UNITS:
        cell = results[unit]
        pinned = (baseline or {}).get("units", {}).get(unit, {}).get(metric)
        rows.append([
            unit, metric, format_rate(cell[metric]),
            format_rate(pinned) if pinned else "-",
            f"{cell[metric] / pinned:.2f}x" if pinned else "-",
        ])
    emit("BENCH_hotpath_micro_report", format_table(
        ["unit", "metric", "measured", "pinned", "ratio"],
        rows,
        title="Hot-path micro-benchmarks (layer-level throughput)",
    ))
    emit_json("BENCH_hotpath_micro", {
        "min_fraction": MIN_FRACTION,
        "units": results,
    })


def check_micro(results, baseline):
    """Throughput floors vs the pinned baseline; returns violations."""
    violations = []
    min_fraction = float(baseline.get("min_fraction", MIN_FRACTION))
    for unit, metric in UNITS:
        pinned = baseline.get("units", {}).get(unit, {}).get(metric)
        if pinned is None:
            violations.append(f"{unit}/{metric}: missing from baseline")
            continue
        measured = results[unit][metric]
        if measured < min_fraction * float(pinned):
            violations.append(
                f"{unit}/{metric}: {measured:.3g}/s is below "
                f"{min_fraction:.0%} of pinned {float(pinned):.3g}/s"
            )
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pin", action="store_true",
        help="rewrite the pinned baseline from this run's measurements",
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/results/BENCH_hotpath_micro_baseline.json",
    )
    args = parser.parse_args(argv)

    hw = default_platform()
    results = run_micro(hw)

    if args.pin:
        emit_json("BENCH_hotpath_micro_baseline", {
            "min_fraction": MIN_FRACTION,
            "units": results,
        })
        emit_micro(results)
        print("\npinned new hot-path micro baseline")
        return 0

    import os

    baseline = (
        load_artifact(args.baseline) if os.path.exists(args.baseline)
        else None
    )
    emit_micro(results, baseline)
    if baseline is None:
        print(f"\nno pinned baseline at {args.baseline}; gate skipped "
              "(run with --pin to create one)")
        return 0
    violations = check_micro(results, baseline)
    if violations:
        print("\nHOT-PATH REGRESSIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("\nhot-path micro-benchmarks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
