"""One per-batch record that every observer reads.

``serve_staged`` builds one :class:`~repro.obs.record.ServingRecord` per
observed run and branches on it once per batch; spans, windows, alerts
and request traces are functions of it, so each observer writes the same
artifact whether it reads the record alone or beside the others, and an
observed run serves exactly what an unobserved one does.
"""

import ast
import inspect
import json
import textwrap

import numpy as np
import pytest

from repro import FlecheConfig, FlecheEmbeddingLayer
from repro.obs import (
    RequestTracer,
    SpanTracer,
    TraceConfig,
    WindowedCollector,
    default_serving_slos,
)
from repro.serving import pipeline
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

SLA = 2.5e-4


@pytest.fixture(scope="module")
def dataset():
    return uniform_tables_spec(
        num_tables=4, corpus_size=4_000, alpha=-1.2, dim=16,
    )


@pytest.fixture(scope="module")
def requests(dataset):
    return PoissonArrivals(dataset, 2_400_000.0, seed=6).generate(600)


def _observers():
    return {
        "spans": SpanTracer(),
        "windows": WindowedCollector(
            window=2.5e-4, sla_budget=SLA, engine=default_serving_slos(SLA),
        ),
        "traces": RequestTracer(TraceConfig(head_interval=8, sla_budget=SLA)),
    }


def _artifacts(observers):
    out = {}
    if "spans" in observers:
        out["spans"] = observers["spans"].to_chrome_trace()
    if "windows" in observers:
        out["series"] = observers["windows"].to_payload()
        out["alerts"] = observers["windows"].engine.to_payload()
    if "traces" in observers:
        out["traces"] = observers["traces"].to_payload()
    return {name: json.dumps(payload, sort_keys=True)
            for name, payload in out.items()}


def _serve(hw, dataset, requests, observers):
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    server = PipelinedInferenceServer(
        dataset, layer, hw, depth=2,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
    )
    server.observers += list(observers.values())
    return server.serve(list(requests))


def _served(report):
    """Everything a report says about serving (not about tracing)."""
    counters = {
        key: value for key, value in report.metrics.to_dict()["counters"]
        .items() if not key.startswith("reqtrace.")
    }
    return (report.latencies.tobytes(), report.batch_sizes, counters,
            report.hits, report.misses, report.coalesced_keys)


def test_every_observer_reads_the_record_alike(hw, dataset, requests):
    together = _observers()
    report = _serve(hw, dataset, requests, together)
    artifacts = _artifacts(together)
    assert set(artifacts) == {"spans", "series", "alerts", "traces"}
    assert report.coalesced_keys > 0
    assert json.loads(artifacts["alerts"])["alerts"]
    for name, observer in _observers().items():
        alone = _serve(hw, dataset, requests, {name: observer})
        for artifact, text in _artifacts({name: observer}).items():
            assert text == artifacts[artifact], artifact
        assert _served(alone) == _served(report)
    plain = _serve(hw, dataset, requests, {})
    assert _served(plain) == _served(report)
    assert plain.sampled_traces == 0 < report.sampled_traces
    assert report.rootcause


def test_an_unobserved_run_builds_no_record(hw, dataset, requests,
                                            monkeypatch):
    built = []
    real = pipeline.ServingRecord

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(pipeline, "ServingRecord", counting)
    _serve(hw, dataset, requests, {})
    assert built == []
    _serve(hw, dataset, requests, {"spans": SpanTracer()})
    assert len(built) == 1 and len(built[0]) > 1


def _none_checks(node):
    """Source of every ``x is None`` / ``x is not None`` under ``node``."""
    return [
        ast.unparse(n) for n in ast.walk(node)
        if isinstance(n, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops)
        and any(isinstance(c, ast.Constant) and c.value is None
                for c in n.comparators)
    ]


def test_serve_staged_branches_on_observers_once_per_batch():
    """Inside the batch loop (and the admission it calls) the only
    observer branch is the record's, taken once when a batch finishes."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(pipeline.serve_staged)))
    function = tree.body[0]
    loop = next(n for n in function.body if isinstance(n, ast.While))
    admit = next(n for n in function.body if isinstance(n, ast.FunctionDef))
    checks = _none_checks(loop) + _none_checks(admit)
    observed = [c for c in checks if not any(
        part in c for part in ("coalescer", "refresher", "chosen")
    )]
    assert observed == ["record is not None"]
    # ... and it sits under the batch's completion, not under a stage.
    finished = next(
        n for n in ast.walk(loop) if isinstance(n, ast.If)
        and ast.unparse(n.test) == "finished"
    )
    assert "record is not None" in _none_checks(finished)
    for name in ("tracer", "collector", "reqtracer", "observers"):
        assert name not in ast.unparse(loop), name


def test_record_latencies_are_the_reports(hw, dataset, requests):
    kept = SpanTracer()
    records = []
    kept.observe = records.append
    report = _serve(hw, dataset, requests, {"spans": kept})
    (record,) = records
    assert np.array_equal(record.latencies(), report.latencies)
    assert sum(hi - lo for lo, hi in zip(record.lo, record.hi)) == len(
        requests)
