"""Ablation: probability-based admission filter (paper §3.1).

Sweeps the admission probability ``p``.  Low ``p`` bypasses rare IDs,
cutting swap-in/swap-out work at some hit-rate cost; ``p = 1`` admits
everything.  On a long-tailed workload an intermediate ``p`` minimises
the cache's insert traffic while keeping the hit rate close to maximal.
"""

from repro.bench.harness import make_context, run_scheme
from repro.bench.reporting import emit, format_table, format_time

PROBABILITIES = (1.0, 0.5, 0.25, 0.1)


def test_ablation_admission_probability(hw, run_once):
    def experiment():
        table = {}
        for p in PROBABILITIES:
            context = make_context(
                "criteo-kaggle", batch_size=2048, num_batches=14, hw=hw,
            )
            result = run_scheme(context, "fleche", admission_probability=p)
            table[p] = (
                result.elapsed / len(result.latencies),
                result.hit_rate,
            )
        return table

    table = run_once(experiment)
    rows = [
        [p, format_time(latency), f"{hit:.1%}"]
        for p, (latency, hit) in table.items()
    ]
    report = format_table(
        ["admission p", "embedding latency", "hit rate"],
        rows,
        title="Ablation: admission-filter probability (criteo-kaggle, 5%)",
    )
    emit("ablation_admission", report)

    # Admitting everything maximises hit rate; a mild filter keeps most of
    # it while reducing insert churn.
    assert table[1.0][1] >= table[0.1][1] - 0.05
    assert table[0.5][1] > table[0.1][1] - 0.1


def test_ablation_eviction_watermarks(hw, run_once):
    """Ablation: eviction watermark distance (paper §3.1).

    Eviction starts when a slab class is full; a lower low watermark
    evicts more per pass (fewer passes, colder survivors).  The cache must
    stay correct and effective for all sane settings.
    """
    def experiment():
        table = {}
        for low in (0.60, 0.75, 0.90):
            context = make_context(
                "avazu", batch_size=2048, num_batches=14,
                cache_ratio=0.02, hw=hw,
            )
            result = run_scheme(context, "fleche", evict_low_watermark=low)
            table[low] = (
                result.elapsed / len(result.latencies), result.hit_rate
            )
        return table

    table = run_once(experiment)
    rows = [
        [f"{low:.2f}", format_time(latency), f"{hit:.1%}"]
        for low, (latency, hit) in table.items()
    ]
    report = format_table(
        ["low watermark", "embedding latency", "hit rate"],
        rows,
        title="Ablation: eviction watermarks (avazu, 2% cache)",
    )
    emit("ablation_watermarks", report)
    for latency, hit in table.values():
        assert latency > 0 and 0 < hit < 1
