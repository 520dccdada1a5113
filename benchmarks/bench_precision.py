"""Mixed-precision cache benchmark: effective capacity at matched bytes.

Three questions, one artifact:

- **Effective capacity**: sweep the fp32 hit-rate-vs-byte-budget curve,
  then run mixed tier splits at the *smallest* budget and interpolate
  where each split's hit rate lands on the fp32 curve.  The ratio of
  budgets is the split's effective-capacity multiplier; the tail-heavy
  split must clear ``MIN_EFFECTIVE_X`` in ``--full`` mode.
- **Quality**: reuse Exp #5's collision/AUC machinery — int8-quantize the
  low-frequency tail of a trained hashed-logistic model's weights and
  require the held-out AUC to move less than ``AUC_EPSILON``.
- **One path**: the default cache is the one-tier (all-fp32) case of the
  tiered replacement path, so a config spelling that split out must
  reproduce the plain fleche run *exactly* (hits, misses, latencies),
  mirroring the byte-identity test in ``tests/test_golden_hotpath.py``.

The tracked ``benchmarks/results/BENCH_precision.json`` is the pin:
``tests/test_pinned_payloads.py`` requires the ``--smoke`` output to
equal it leaf for leaf.  Re-pin by running the bench and committing the
``git diff``.

Usage::

    PYTHONPATH=src python benchmarks/bench_precision.py --smoke
"""

import argparse
import sys

import numpy as np

from repro import PrecisionConfig, default_platform
from repro.bench.harness import canonical_json, make_context, run_scheme
from repro.bench.reporting import emit, emit_json, format_table
from repro.coding.size_aware import SizeAwareCodec
from repro.core.precision import dequantize_rows, quantize_rows
from repro.model.trainer import CollisionAucStudy, SyntheticCtrTask

#: Byte budget (cache_ratio) the mixed splits run at; the fp32 curve
#: starts here and widens upward.
BASE_RATIO = 0.02
FP32_RATIOS_SMOKE = (0.02, 0.03, 0.04, 0.05)
FP32_RATIOS_FULL = (0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.08)

#: Tier splits benchmarked at the base budget.
SPLITS = {
    "default": {"fp32": 0.25, "fp16": 0.25, "int8": 0.5, "policy": "lru"},
    "tail-heavy": {"fp32": 0.1, "fp16": 0.1, "int8": 0.8, "policy": "lfu"},
}

POLICIES = ("lru", "lfu", "hybrid")

#: Full mode requires the best split to reach this capacity multiplier.
MIN_EFFECTIVE_X = 2.0
#: Max AUC movement the int8 tail quantization may cause.
AUC_EPSILON = 0.01


def _context(hw, ratio):
    """The workload every cache run replays (deterministic, warm half)."""
    return make_context(
        "avazu", batch_size=256, num_batches=12, cache_ratio=ratio,
        scale=0.02, hw=hw, warmup=4,
    )


def _precision(split):
    return PrecisionConfig(
        fp32_share=split["fp32"],
        fp16_share=split["fp16"],
        int8_share=split["int8"],
        eviction_policy=split["policy"],
    )


def run_fp32_curve(hw, ratios):
    """Hit rate of the plain fp32 cache at each byte budget."""
    curve = {}
    for ratio in ratios:
        result = run_scheme(_context(hw, ratio), "fleche")
        curve[ratio] = result.hit_rate
    return curve


def effective_ratio(curve, hit_rate):
    """Interpolate the fp32 byte budget that matches ``hit_rate``.

    Above the curve's last point the multiplier is clamped to the
    largest swept budget (reported as a lower bound, never extrapolated).
    """
    ratios = np.asarray(sorted(curve), dtype=np.float64)
    hits = np.asarray([curve[r] for r in ratios], dtype=np.float64)
    order = np.argsort(hits, kind="stable")
    return float(np.interp(hit_rate, hits[order], ratios[order]))


def run_splits(hw, curve):
    """Mixed splits at the base budget -> hit rate + capacity multiplier."""
    cells = {}
    for name, split in sorted(SPLITS.items()):
        result = run_scheme(
            _context(hw, BASE_RATIO), "fleche",
            precision=_precision(split),
        )
        eff = effective_ratio(curve, result.hit_rate)
        cells[name] = {
            "hit_rate": result.hit_rate,
            "fp32_hit_rate_here": curve[BASE_RATIO],
            "effective_ratio": eff,
            "effective_capacity_x": eff / BASE_RATIO,
            "promotions": int(result.promotions),
            "demotions": int(result.demotions),
        }
    return cells


def run_policy_ablation(hw):
    """Tail-heavy shares under each eviction policy at the base budget."""
    split = dict(SPLITS["tail-heavy"])
    cells = {}
    for policy in POLICIES:
        split["policy"] = policy
        result = run_scheme(
            _context(hw, BASE_RATIO), "fleche",
            precision=_precision(split),
        )
        cells[policy] = result.hit_rate
    return cells


def run_pinned_identity(hw):
    """An explicit all-fp32 split vs plain fleche: must match exactly."""
    plain = run_scheme(_context(hw, BASE_RATIO), "fleche")
    pinned = run_scheme(
        _context(hw, BASE_RATIO), "fleche",
        precision=PrecisionConfig(
            fp32_share=1.0, fp16_share=0.0, int8_share=0.0,
        ),
    )

    def digest(result):
        return canonical_json({
            "hits": int(result.hits),
            "misses": int(result.misses),
            "unified_hits": int(result.unified_hits),
            "latencies": [float(x) for x in result.latencies],
            "elapsed": float(result.elapsed),
        })

    return digest(plain) == digest(pinned)


def run_auc_proxy(smoke):
    """AUC before/after int8-quantizing the tail tier's trained weights."""
    task = SyntheticCtrTask(
        corpus_sizes=[64, 256, 1024],
        num_train=4_000 if smoke else 12_000,
        num_test=1_500 if smoke else 3_000,
        alpha=-0.8, seed=3,
    )
    study = CollisionAucStudy(task, epochs=4)
    codec = SizeAwareCodec(list(task.corpus_sizes), key_bits=32)
    baseline = study.auc_with_codec(codec)

    keys = np.zeros(task.train_features.shape, dtype=np.uint64)
    for t in range(task.train_features.shape[1]):
        keys[:, t] = codec.encode(t, task.train_features[:, t])
    flat, counts = np.unique(keys, return_counts=True)
    hot = set(flat[counts >= np.quantile(counts, 0.9)].tolist())

    def tail_int8(weight_keys, weights):
        mask = np.array(
            [int(k) not in hot for k in weight_keys], dtype=bool
        )
        out = weights.astype(np.float64).copy()
        tail = weights[mask].astype(np.float32)
        if len(tail):
            payload, scales = quantize_rows(tail[None, :], "int8")
            out[mask] = dequantize_rows(
                payload, scales, "int8"
            )[0].astype(np.float64)
        return out

    quantized = study.auc_with_codec(codec, weight_transform=tail_int8)
    return {
        "baseline": baseline,
        "int8_tail": quantized,
        "delta": abs(baseline - quantized),
        "epsilon": AUC_EPSILON,
    }


def run_bench(smoke):
    hw = default_platform()
    ratios = FP32_RATIOS_SMOKE if smoke else FP32_RATIOS_FULL
    curve = run_fp32_curve(hw, ratios)
    splits = run_splits(hw, curve)
    policies = run_policy_ablation(hw)
    pinned_identical = run_pinned_identity(hw)
    auc = run_auc_proxy(smoke)
    return {
        "mode": "smoke" if smoke else "full",
        "base_ratio": BASE_RATIO,
        "min_effective_x": MIN_EFFECTIVE_X,
        "fp32_curve": {f"{r:g}": hit for r, hit in sorted(curve.items())},
        "splits": splits,
        "policies": policies,
        "pinned_identical": pinned_identical,
        "auc": auc,
    }


def emit_report(payload):
    rows = [
        [name, f"{cell['hit_rate']:.2%}",
         f"{cell['fp32_hit_rate_here']:.2%}",
         f"{cell['effective_capacity_x']:.2f}x",
         cell["promotions"], cell["demotions"]]
        for name, cell in sorted(payload["splits"].items())
    ]
    print(format_table(
        ["split", "hit rate", "fp32 @ same bytes", "effective capacity",
         "promotions", "demotions"],
        rows,
        title=(
            f"Mixed-precision tiering at {payload['base_ratio']:.0%} "
            "byte budget (avazu replica)"
        ),
    ))
    print(format_table(
        ["policy", "hit rate"],
        [[p, f"{h:.2%}"] for p, h in sorted(payload["policies"].items())],
        title="Eviction-policy ablation (tail-heavy shares)",
    ))
    auc = payload["auc"]
    print(
        f"\nAUC proxy: baseline {auc['baseline']:.4f} -> int8 tail "
        f"{auc['int8_tail']:.4f} (delta {auc['delta']:.4f}, "
        f"epsilon {auc['epsilon']})"
    )
    print(f"pinned-fp32 identical to plain fleche: "
          f"{payload['pinned_identical']}")
    emit("BENCH_precision_report", canonical_json(payload))


def check(payload, smoke):
    """In-run acceptance assertions; returns violations."""
    violations = []
    if not payload["pinned_identical"]:
        violations.append("pinned-fp32 run diverged from plain fleche")
    auc = payload["auc"]
    if auc["delta"] > auc["epsilon"]:
        violations.append(
            f"int8-tail AUC moved {auc['delta']:.4f} > "
            f"epsilon {auc['epsilon']}"
        )
    best = max(
        cell["effective_capacity_x"] for cell in payload["splits"].values()
    )
    if not smoke and best < MIN_EFFECTIVE_X:
        violations.append(
            f"best effective capacity {best:.2f}x < "
            f"required {MIN_EFFECTIVE_X}x"
        )
    for name, cell in payload["splits"].items():
        if cell["hit_rate"] < cell["fp32_hit_rate_here"]:
            violations.append(
                f"split {name}: hit rate {cell['hit_rate']:.2%} below "
                f"fp32 at the same bytes "
                f"({cell['fp32_hit_rate_here']:.2%})"
            )
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: short fp32 ladder, small AUC task",
    )
    args = parser.parse_args(argv)

    payload = run_bench(smoke=args.smoke)
    emit_report(payload)
    emit_json("BENCH_precision", payload)

    violations = check(payload, smoke=args.smoke)
    if violations:
        print("\nFAILURES:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("\nprecision bench passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
