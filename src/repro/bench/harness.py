"""Shared machinery for running the paper's experiments.

An :class:`ExperimentContext` bundles a dataset replica, its trace, the
host store, and the platform spec; :func:`run_scheme` replays the trace
through a cache scheme and returns the engine's result.  Benchmarks use
these so every figure is produced by the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from ..baselines.no_cache import NoCacheLayer
from ..baselines.per_table_cache import PerTableCacheLayer, PerTableConfig
from ..core.config import FlecheConfig
from ..core.engine import InferenceEngine, InferenceResult
from ..core.workflow import FlecheEmbeddingLayer
from ..gpusim.executor import Executor
from ..hardware import HardwareSpec, default_platform
from ..model.dcn import DeepCrossNetwork
from ..tables.store import EmbeddingStore
from ..workloads.datasets import DATASET_REPLICAS, PAPER_DEFAULT_RATIO
from ..workloads.spec import DatasetSpec
from ..workloads.synthetic import synthetic_dataset
from ..workloads.trace import Trace

#: Replica scale used by benchmarks: full ladder, laptop-sized corpora.
BENCH_SCALE = 1.0

#: Scheme names accepted by :func:`scheme_factory`.
SCHEME_NAMES = ("hugectr", "fleche", "fleche-noui", "no-cache")


@dataclass
class ExperimentContext:
    """Everything one experiment run needs."""

    dataset: DatasetSpec
    trace: Trace
    store: EmbeddingStore
    hw: HardwareSpec
    cache_ratio: float
    warmup: int


def make_context(
    dataset_name: str = "avazu",
    batch_size: int = 4096,
    num_batches: int = 24,
    cache_ratio: Optional[float] = None,
    scale: float = BENCH_SCALE,
    hw: Optional[HardwareSpec] = None,
    warmup: Optional[int] = None,
    dataset: Optional[DatasetSpec] = None,
) -> ExperimentContext:
    """Build a context for one of the paper's dataset replicas.

    Args:
        dataset_name: one of ``avazu``, ``criteo-kaggle``, ``criteo-tb``
            (ignored when ``dataset`` is given).
        batch_size: inference batch size.
        num_batches: total batches generated (warmup + measurement).
        cache_ratio: cache size as a fraction of all parameters; defaults
            to the paper's per-dataset default (5% / 5% / 0.5%).
        scale: replica corpus scale factor.
        hw: platform spec (defaults to the paper's testbed).
        warmup: warm-up batches (default: half the trace).
        dataset: pre-built dataset spec overriding the named replica.
    """
    hw = hw or default_platform()
    if dataset is None:
        dataset = DATASET_REPLICAS[dataset_name](scale=scale)
    if cache_ratio is None:
        cache_ratio = PAPER_DEFAULT_RATIO.get(dataset.name, 0.05)
    trace = synthetic_dataset(dataset, num_batches=num_batches, batch_size=batch_size)
    store = EmbeddingStore(dataset.table_specs(), hw)
    return ExperimentContext(
        dataset=dataset,
        trace=trace,
        store=store,
        hw=hw,
        cache_ratio=cache_ratio,
        warmup=warmup if warmup is not None else num_batches // 2,
    )


def scheme_factory(
    name: str, context: ExperimentContext, **config_overrides
) -> Callable[[], object]:
    """Return a zero-arg constructor for the named cache scheme."""
    if name not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme {name!r}; pick from {SCHEME_NAMES}")
    hw, store, ratio = context.hw, context.store, context.cache_ratio

    def build():
        if name == "hugectr":
            return PerTableCacheLayer(store, PerTableConfig(cache_ratio=ratio), hw)
        if name == "fleche":
            cfg = FlecheConfig(cache_ratio=ratio, **config_overrides)
            return FlecheEmbeddingLayer(store, cfg, hw)
        if name == "fleche-noui":
            cfg = FlecheConfig(
                cache_ratio=ratio, use_unified_index=False, **config_overrides
            )
            return FlecheEmbeddingLayer(store, cfg, hw)
        if name == "no-cache":
            return NoCacheLayer(store, hw)
        raise ValueError(f"unknown scheme {name!r}; pick from {SCHEME_NAMES}")

    return build


def run_scheme(
    context: ExperimentContext,
    scheme_name: str,
    include_dense: bool = False,
    model: Optional[DeepCrossNetwork] = None,
    pin_unified: bool = False,
    **config_overrides,
) -> InferenceResult:
    """Replay the context's trace through one scheme; warm-up untimed.

    ``pin_unified`` disables the capacity auto-tuner and pins the unified
    index at its configured maximum — the steady state the paper's
    sensitivity experiments operate in.
    """
    scheme = scheme_factory(scheme_name, context, **config_overrides)()
    if pin_unified and isinstance(scheme, FlecheEmbeddingLayer):
        if scheme.tuner is not None:
            fraction = scheme.config.unified_index_fraction
            scheme.tuner = None
            scheme.cache.set_unified_capacity(
                int(scheme.cache.capacity_slots * fraction)
            )
    if include_dense and model is None:
        model = DeepCrossNetwork(
            num_tables=context.dataset.num_tables,
            embedding_dim=context.dataset.dim,
        )
    engine = InferenceEngine(
        scheme,
        context.hw,
        model=model,
        include_dense=include_dense,
    )
    executor = Executor(context.hw)
    return engine.run(list(context.trace), executor, warmup=context.warmup)


def sweep(
    context_factory: Callable[[object], ExperimentContext],
    points: Iterable[object],
    scheme_names: Iterable[str],
    **run_kwargs,
) -> Dict[object, Dict[str, InferenceResult]]:
    """Run a parameter sweep: one context per point, all schemes on each."""
    results: Dict[object, Dict[str, InferenceResult]] = {}
    for point in points:
        context = context_factory(point)
        results[point] = {
            name: run_scheme(context, name, **run_kwargs)
            for name in scheme_names
        }
    return results


# --------------------------------------------------------------------------
# Drill harness: fault-window setup, alert timing, deterministic artifacts.
# Shared by the fault and cluster sections of benchmarks/claims.py so
# every chaos drill measures detection/recovery the same way and emits
# comparable, byte-stable artifacts.

def fault_window(
    horizon: float, start_fraction: float, duration_fraction: float
) -> "tuple[float, float, float]":
    """Place one fault window inside a run: ``(start, duration, end)``.

    Fractions are of ``horizon``; a zero duration returns an empty
    window (``duration == 0``) the caller can treat as fault-free.
    """
    start = start_fraction * horizon
    duration = duration_fraction * horizon
    return start, duration, start + duration


def shard_outage_events(num_shards: int, start: float, duration: float):
    """One :class:`~repro.faults.schedule.ShardOutage` per shard, or an
    empty list when ``duration`` is zero (the fault-free control)."""
    from ..faults.schedule import ShardOutage

    if duration <= 0:
        return []
    return [
        ShardOutage(shard=shard, start=start, duration=duration)
        for shard in range(num_shards)
    ]


def alert_timing(alerts, event_start: float, event_end: float) -> dict:
    """Score a list of :class:`~repro.obs.alerts.Alert` against a known
    fault window.

    Returns time-to-detect (first alert fired at/after onset),
    time-to-recover (last alert resolved after the window cleared, or
    ``None`` while any alert is still firing), the count of alerts fired
    *before* the fault existed (false positives — drills assert zero),
    and which rules remain unresolved.
    """
    fired = [
        a.fired_at - event_start for a in alerts
        if a.fired_at >= event_start
    ]
    resolved = [
        a.resolved_at - event_end for a in alerts
        if a.resolved_at is not None and a.resolved_at >= event_end
    ]
    unresolved = sorted({a.rule for a in alerts if a.resolved_at is None})
    return {
        "ttd_s": min(fired) if fired else None,
        "ttr_s": max(resolved) if (resolved and not unresolved) else None,
        "early_alerts": sum(1 for a in alerts if a.fired_at < event_start),
        "alerts": len(alerts),
        "unresolved": unresolved,
    }


def canonical_json(payload) -> str:
    """The byte-stable JSON encoding drill determinism is judged on."""
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def payload_digest(payload) -> str:
    """sha256 over :func:`canonical_json` — the report hash drills pin."""
    import hashlib

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def emit_rootcause(name: str, trace_payload: dict) -> "tuple[str, str]":
    """Emit a ``reqtrace`` artifact plus its critical-path analysis.

    Persists the raw trace payload as ``<name>.json`` and the
    :func:`~repro.obs.critical_path.analyze_payload` summary — per-cause
    SLA-miss counts and the top slowest requests with their segment
    decompositions — as ``<name>_rootcause.json``, the pair the CI
    cluster smoke uploads and ``repro obs critical-path`` consumes.
    Returns both paths.
    """
    from ..obs.critical_path import analyze_payload
    from .reporting import emit_json

    trace_path = emit_json(name, trace_payload)
    analysis = analyze_payload(trace_payload)
    return trace_path, emit_json(f"{name}_rootcause", analysis)
