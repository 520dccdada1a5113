"""Ablation: the §5 deployment extensions at scale.

* Multi-GPU flat caching — aggregate capacity scales with GPU count, the
  gather traffic is the price; sweep cluster sizes.
* Giant-model tiers — end-to-end behaviour as the local DRAM tier shrinks
  relative to the hot set (remote fetches grow, invalidations flow).
"""

import numpy as np

from repro import Executor, FlecheConfig
from repro.bench.reporting import emit, format_table, format_time
from repro.core.config import FlecheConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.multigpu.model_parallel import MultiGpuFlatCache
from repro.multitier.hierarchy import TieredParameterStore
from repro.tables.embedding_table import reference_vectors
from repro.tables.table_spec import make_table_specs
from repro.workloads.synthetic import synthetic_dataset, uniform_tables_spec
from repro.workloads.zipf import ZipfSampler


def test_ablation_multigpu_scaling(hw, run_once):
    def experiment():
        specs = make_table_specs([200_000] * 8, [32] * 8)
        sampler = ZipfSampler(200_000, alpha=-1.0, seed=9)
        table = {}
        for num_gpus in (1, 2, 4, 8):
            cluster = MultiGpuFlatCache(
                specs,
                FlecheConfig(cache_ratio=0.002, use_unified_index=False),
                hw,
                num_gpus=num_gpus,
            )
            cluster.tick()
            hits = total = 0
            gather = 0.0
            for step in range(16):
                cluster.tick()
                ids = sampler.sample(8_192)
                unique = np.unique(ids)
                keys = cluster.codec.encode(0, unique)
                outcome = cluster.query_unique(
                    np.zeros(len(unique)), keys, dim=32
                )
                if step >= 8:  # measure once shards are warm
                    counts = np.bincount(
                        np.searchsorted(unique, ids), minlength=len(unique)
                    )
                    hits += int(counts[outcome.hit_mask].sum())
                    total += len(ids)
                    gather += outcome.gather_time
                miss = ~outcome.hit_mask
                cluster.insert_unique(
                    keys[miss],
                    reference_vectors(0, unique[miss], 32),
                    dim=32,
                )
            table[num_gpus] = (hits / total, gather / 8)
        return table

    table = run_once(experiment)
    rows = [
        [n, f"{hit:.1%}", format_time(gather)]
        for n, (hit, gather) in table.items()
    ]
    report = format_table(
        ["# GPUs", "hit rate (0.2% per-GPU cache)", "gather time/batch"],
        rows,
        title="Ablation: multi-GPU flat caching (§5 future work)",
    )
    emit("ablation_multigpu", report)
    # More GPUs -> bigger aggregate cache -> higher hit rate.
    assert table[8][0] > table[1][0] + 0.05
    # But remote gathers appear as soon as there is more than one GPU.
    assert table[1][1] == 0.0
    assert table[4][1] > 0.0


def test_ablation_tiered_store(hw, run_once):
    def experiment():
        dataset = uniform_tables_spec(
            num_tables=6, corpus_size=30_000, alpha=-1.0, dim=16,
        )
        trace = synthetic_dataset(dataset, num_batches=24, batch_size=1024)
        rows = []
        numbers = {}
        for dram_share in (1.0, 0.25, 0.05):
            capacity = max(64, int(dataset.total_sparse_ids * dram_share))
            store = TieredParameterStore(
                dataset.table_specs(), hw, dram_capacity=capacity
            )
            layer = FlecheEmbeddingLayer(
                store, FlecheConfig(cache_ratio=0.01), hw
            )
            executor = Executor(hw)
            batches = list(trace)
            for batch in batches[:16]:
                layer.query(batch, executor)
            executor.reset()
            for batch in batches[16:]:
                layer.query(batch, executor)
            latency = executor.drain() / 8
            tier = store.obs.total
            hits, misses = tier("tier.dram_hits"), tier("tier.dram_misses")
            hit_rate = hits / (hits + misses)
            remote_keys = tier("tier.remote_keys")
            rows.append([
                f"{dram_share:.0%}",
                format_time(latency),
                f"{hit_rate:.1%}",
                remote_keys,
                tier("tier.pointer_invalidations"),
            ])
            numbers[dram_share] = (latency, hit_rate, remote_keys)
        return rows, numbers

    rows, numbers = run_once(experiment)
    report = format_table(
        ["DRAM tier size", "embedding latency", "DRAM hit rate",
         "remote keys fetched", "pointer invalidations"],
        rows,
        title="Ablation: giant-model tiers (§5) — shrinking local DRAM",
    )
    emit("ablation_tiered_store", report)
    # A smaller DRAM tier serves fewer recurring misses locally, so more
    # keys travel to the remote tier and stale-pointer invalidations flow.
    assert numbers[0.05][1] < numbers[1.0][1]
    assert numbers[0.05][2] >= numbers[1.0][2]
    assert numbers[1.0][0] > 0
