"""Outside-in span tracing for the ledger benchmark's traced pass.

The program under test is not instrumented.  For one pass only, the
benchmark replaces the public entry points listed in :data:`TARGETS` with
timing wrappers (``setattr`` on the owning class or module), runs the
pass, and puts the originals back.  Every call records one span — name,
layer, start, end, parent span and the rung it ran in — into in-memory
columns; nothing is written until the pass is over.

Generator entry points (the staged query) are timed *per resume*: a span
opens when the driver resumes the generator and closes at its next
``yield``, so time the serving loop spends between stages is not charged
to the query.  ``calls`` still counts generator calls, not resumes.

A span's self time is its duration minus the part its child spans cover,
so self times add up to the root spans' durations by construction;
:meth:`SpanTracer.layer_report` folds them per layer.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np


class Target(NamedTuple):
    """One public entry point to wrap."""

    #: ``"package.module:Class"`` or ``"package.module"`` (module function).
    owner: str
    attr: str
    #: Metric stem the span's calls/keys/self time are reported under.
    stem: str
    #: ``src/repro/<layer>`` the self time is charged to.
    layer: str
    #: ``positional args (self first) -> number of keys/rows handled``.
    keys: Optional[Callable] = None
    #: ``(positional args, return value) -> value`` kept, with the rung
    #: tag, in ``SpanTracer.captured[stem]`` — how the benchmark reads
    #: public outputs (reports, probe statistics) produced inside a pass.
    capture: Optional[Callable] = None


def _len_arg(i: int) -> Callable:
    return lambda args: len(args[i])


def _probe(stats) -> tuple:
    """``ProbeStats`` -> (keys, transactions, summed dependent hops)."""
    return (stats.lookups, stats.transactions,
            stats.dependent_hops * stats.lookups)


def _served(args, report) -> tuple:
    """A server's report, its run introspection (resource busy time) and
    the dense model it ran (for computed FLOPs)."""
    server = args[0]
    return (report, server.last_run, server.engine.model)


#: The entry points the traced pass wraps, outermost layers first.
TARGETS: List[Target] = [
    Target("repro.cluster.router:ClusterRouter", "serve", "cluster.serve", "cluster"),
    Target("repro.cluster.replica:ClusterReplica", "serve", "cluster.replica.serve", "cluster"),
    Target("repro.cluster.replica:ClusterReplica", "recover", "cluster.recover", "cluster"),
    Target("repro.cluster.router", "plan_primary_streams", "cluster.plan", "cluster"),
    Target("repro.serving.pipeline:PipelinedInferenceServer", "serve", "serving.serve", "serving",
           capture=_served),
    Target("repro.serving.pipeline:InFlightMissTable", "match", "serving.miss_table", "serving", _len_arg(1)),
    Target("repro.serving.pipeline:InFlightMissTable", "publish", "serving.miss_table", "serving", _len_arg(1)),
    Target("repro.serving.pipeline:InFlightMissTable", "retire", "serving.miss_table", "serving"),
    Target("repro.core.workflow:FlecheEmbeddingLayer", "query_stages", "core.query", "core"),
    Target("repro.core.flat_cache:FlatCache", "index_lookup", "core.index_lookup", "core", _len_arg(1)),
    Target("repro.core.flat_cache:FlatCache", "gather", "core.gather", "core", _len_arg(1)),
    Target("repro.core.flat_cache:FlatCache", "admit_and_insert", "core.admit_and_insert", "core", _len_arg(1)),
    Target("repro.core.flat_cache:FlatCache", "retier_hits", "core.retier_hits", "core", _len_arg(1)),
    Target("repro.core.updates:UpdateApplier", "apply", "core.updates", "core", _len_arg(2)),
    Target("repro.hashindex.slab_hash:SlabHashIndex", "lookup", "hashindex.lookup", "hashindex", _len_arg(1),
           lambda args, result: _probe(result[2])),
    Target("repro.hashindex.slab_hash:SlabHashIndex", "insert", "hashindex.insert", "hashindex", _len_arg(1),
           lambda args, result: _probe(result.stats)),
    Target("repro.hashindex.slab_hash:SlabHashIndex", "erase", "hashindex.erase", "hashindex", _len_arg(1),
           lambda args, result: _probe(result[1])),
    Target("repro.mempool.slab_pool:SlabMemoryPool", "allocate", "mempool.allocate", "mempool"),
    Target("repro.mempool.slab_pool:SlabMemoryPool", "release", "mempool.release", "mempool", _len_arg(1)),
    Target("repro.mempool.slab_pool:SlabMemoryPool", "write", "mempool.write", "mempool", _len_arg(1)),
    Target("repro.mempool.slab_pool:SlabMemoryPool", "read", "mempool.read", "mempool", _len_arg(1)),
    Target("repro.tables.store:EmbeddingStore", "query_many", "tables.query", "tables", _len_arg(1)),
    Target("repro.multitier.hierarchy:TieredParameterStore", "query_many", "multitier.query", "multitier", _len_arg(1)),
    Target("repro.multitier.hierarchy:TieredParameterStore", "apply_update", "multitier.apply_update", "multitier", _len_arg(2)),
    Target("repro.multitier.dram_cache:DramCacheLayer", "lookup", "multitier.dram", "multitier", _len_arg(2)),
    Target("repro.multitier.dram_cache:DramCacheLayer", "refresh", "multitier.dram", "multitier", _len_arg(2)),
    Target("repro.multitier.remote_ps:RemoteParameterServer", "fetch", "multitier.remote", "multitier", _len_arg(2)),
    Target("repro.model.dcn:DeepCrossNetwork", "forward", "model.forward", "model", _len_arg(1)),
    Target("repro.refresh.scheduler:RefreshScheduler", "run_idle", "refresh.run_idle", "refresh"),
    Target("repro.refresh.subscriber:UpdateSubscriber", "apply_next", "refresh.apply_next", "refresh"),
    Target("repro.gpusim.executor:Executor", "launch", "gpusim.launch", "gpusim"),
    Target("repro.gpusim.executor:Executor", "copy", "gpusim.copy", "gpusim"),
    Target("repro.gpusim.executor:Executor", "host_work", "gpusim.host_work", "gpusim"),
    Target("repro.gpusim.executor:Executor", "synchronize", "gpusim.synchronize", "gpusim"),
    Target("repro.obs.registry:MetricsRegistry", "snapshot", "obs.snapshot", "obs"),
    Target("repro.obs.registry:MetricsRegistry", "audit", "obs.audit", "obs"),
    Target("repro.obs.registry:MetricsRegistry", "observe_many", "obs.observe_many", "obs"),
    Target("repro.obs.registry:MetricsSnapshot", "diff", "obs.diff", "obs"),
]


def resolve(owner: str):
    """The class or module a ``Target.owner`` string names."""
    module_name, _, cls = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


class SpanTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: stem id -> (stem, layer); spans refer to stems by id.
        self.stems: List[tuple] = []
        self._stem_ids: Dict[tuple, int] = {}
        # Span columns (one entry per span).
        self.stem_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.tag_of: List[int] = []
        self.keys: List[int] = []
        #: stem id -> calls (a generator call counts once, not per resume).
        self.calls: List[int] = []
        #: Label stored on every span opened from now on (the rung id).
        self.tag = 0
        #: stem -> [(rung tag, captured value), ...] (see ``Target.capture``).
        self.captured: Dict[str, list] = {}
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # ------------------------------------------------------------ recording

    def stem(self, stem: str, layer: str) -> int:
        """The id spans of ``stem`` are recorded under (created on demand)."""
        key = (stem, layer)
        if key not in self._stem_ids:
            self._stem_ids[key] = len(self.stems)
            self.stems.append(key)
            self.calls.append(0)
        return self._stem_ids[key]

    def open(self, sid: int, keys: int = 0) -> int:
        """Open a span under the current innermost one; returns its index."""
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.stem_id.append(sid)
        self.tag_of.append(self.tag)
        self.keys.append(keys)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable, stem: str, layer: str,
             keys: Optional[Callable] = None,
             capture: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn`` (function or generator function)."""
        sid = self.stem(stem, layer)
        sink = self.captured.setdefault(stem, [])
        calls = self.calls
        open_, close = self.open, self.close

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                calls[sid] += 1
                inner = fn(*args, **kwargs)
                sent = None
                while True:
                    idx = open_(sid)
                    try:
                        item = inner.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close(idx)
                    sent = yield item
            return traced_generator

        def traced(*args, **kwargs):
            calls[sid] += 1
            idx = open_(sid, keys(args) if keys is not None else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if capture is not None:
                sink.append((self.tag, capture(args, result)))
            return result
        return traced

    # ---------------------------------------------------------- (un)install

    def install(self, targets=TARGETS) -> None:
        """Replace every target with its wrapper (undo with :meth:`uninstall`)."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            owner = resolve(target.owner)
            original = owner.__dict__[target.attr]
            setattr(owner, target.attr,
                    self.wrap(original, target.stem, target.layer,
                              target.keys, target.capture))
            self._installed.append((owner, target.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -------------------------------------------------------------- reports

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the children's durations."""
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        child = parent >= 0
        covered = np.bincount(
            parent[child], weights=duration[child], minlength=len(duration)
        )
        return duration - covered

    def stem_report(self) -> Dict[str, dict]:
        """``stem -> {layer, calls, spans, keys, self_s}`` (stems merged
        across targets that share one)."""
        self_s = self.self_times()
        sid = np.asarray(self.stem_id, dtype=np.int64)
        n = len(self.stems)
        self_by = np.bincount(sid, weights=self_s, minlength=n)
        spans_by = np.bincount(sid, minlength=n)
        keys_by = np.bincount(
            sid, weights=np.asarray(self.keys, dtype=np.float64), minlength=n
        )
        report: Dict[str, dict] = {}
        for i, (stem, layer) in enumerate(self.stems):
            row = report.setdefault(
                stem,
                {"layer": layer, "calls": 0, "spans": 0, "keys": 0, "self_s": 0.0},
            )
            row["calls"] += int(self.calls[i])
            row["spans"] += int(spans_by[i])
            row["keys"] += int(keys_by[i])
            row["self_s"] += float(self_by[i])
        return report

    def layer_report(self) -> Dict[str, float]:
        """``layer -> summed self time`` of every span in that layer."""
        layers: Dict[str, float] = {}
        for row in self.stem_report().values():
            layers[row["layer"]] = layers.get(row["layer"], 0.0) + row["self_s"]
        return layers

    def to_payload(self) -> dict:
        """Columnar JSON-safe dump of every span (times relative to the
        first span's start)."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "columns": ["stem", "start_s", "end_s", "parent", "rung", "keys"],
            "stems": [
                {"stem": stem, "layer": layer} for stem, layer in self.stems
            ],
            "stem": self.stem_id,
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
            "parent": self.parent,
            "rung": self.tag_of,
            "keys": self.keys,
        }
