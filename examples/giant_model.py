"""Giant-model deployment: the three-tier hierarchy of paper §5.

When embedding parameters exceed local DRAM, the CPU-DRAM layer becomes a
cache over a remote parameter server.  Fleche's workflow runs unchanged on
top; the subtlety is the unified index, whose DRAM pointers go stale when
the DRAM tier evicts.  This example drives the full stack, shrinks the
DRAM tier, and shows the invalidation machinery doing its job.

Run:  python examples/giant_model.py
"""

from repro import (
    Executor,
    FlecheConfig,
    FlecheEmbeddingLayer,
    default_platform,
    synthetic_dataset,
    uniform_tables_spec,
)
from repro.bench.reporting import format_table, format_time
from repro.multitier.hierarchy import TieredParameterStore


def main() -> None:
    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=8, corpus_size=40_000, alpha=-1.1, dim=32,
    )
    trace = synthetic_dataset(dataset, num_batches=20, batch_size=1024)

    rows = []
    for label, dram_share in (("ample DRAM (all fits)", 1.0),
                              ("tight DRAM (10%)", 0.10)):
        store = TieredParameterStore(
            dataset.table_specs(),
            hw,
            dram_capacity=max(64, int(dataset.total_sparse_ids * dram_share)),
        )
        layer = FlecheEmbeddingLayer(
            store, FlecheConfig(cache_ratio=0.02), hw
        )
        executor = Executor(hw)
        batches = list(trace)
        for batch in batches[:12]:
            layer.query(batch, executor)
        executor.reset()
        for batch in batches[12:]:
            layer.query(batch, executor)
        tier = store.obs.total
        hits, misses = tier("tier.dram_hits"), tier("tier.dram_misses")
        rows.append([
            label,
            format_time(executor.drain() / 8),
            f"{hits / (hits + misses):.1%}",
            f"{tier('tier.remote_keys'):,}",
            f"{tier('tier.pointer_invalidations'):,}",
        ])

    print(format_table(
        ["deployment", "latency/batch", "DRAM tier hit rate",
         "keys from remote PS", "stale pointers invalidated"],
        rows,
        title="Giant-model inference through GPU -> DRAM -> remote tiers",
    ))
    print()
    print("With a tight DRAM tier, evicted embeddings invalidate their")
    print("GPU-side unified-index pointers (the §5 corner case) — lookups")
    print("stay correct, and the extra traffic shows up as remote fetches.")


if __name__ == "__main__":
    main()
