"""Per-batch work budget of the Fleche cache path (paper §3.1, §4).

A batch is deduplicated once and probes the index once, and no LRU
maintenance pass (eviction, demotion, the unified index's shrink and
clear) scans the whole index: victims come from its recency queues.  The
copy stage re-probes its leading misses only when an insert ran after
the batch's own index probe: the only way a key that probe missed can
have become cached.  These counts are noise-free, so the test asserts
them exactly; a change that brings a second dedup, probe or a scan back
into the per-batch path fails here.

The batch's bookkeeping is budgeted the same way: one codec call, one
timeline plan per stage and one counter call per batch, at most
``depth`` executors and one read of the request list per served stream,
and an exact number of Python calls into ``repro`` for the whole run, so
a per-table or per-request loop that comes back fails here too.
"""

import copy
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.coding.layout import FlatKeyCodec
from repro.core import workflow
from repro.core.cache_base import STAGE_COPY
from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.core.workflow import FlecheEmbeddingLayer
from repro.gpusim.executor import Executor
from repro.hashindex.slab_hash import SlabHashIndex
from repro.obs.registry import MetricsRegistry
from repro.serving import pipeline
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelinedInferenceServer
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec

#: Modules of the per-batch cache path.
CACHE_PATH = ("repro.core.", "repro.hashindex.", "repro.mempool.")


class _Recorder:
    """Event log of one served run, each event tagged with the batch
    whose stage was running."""

    def __init__(self):
        self.batch = None
        self.batches = 0
        self.events = []
        self.calls = defaultdict(Counter)

    def note(self, what, caller=None):
        self.events.append((what, self.batch))
        self.calls[self.batch][what, caller] += 1


def _caller(depth=2):
    frame = sys._getframe(depth)
    return frame.f_code.co_name, frame.f_globals.get("__name__", "")


def _warmed_server(hw):
    """A depth-2 server warmed on 300 requests, and the 3 200 it serves
    overloaded (two batches in flight nearly all the time)."""
    dataset = uniform_tables_spec(
        num_tables=4, corpus_size=2_000, alpha=-1.2, dim=16,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    layer = FlecheEmbeddingLayer(store, FlecheConfig(cache_ratio=0.05), hw)
    server = PipelinedInferenceServer(
        dataset, layer, hw,
        policy=BatchingPolicy(max_batch_size=64, max_delay=5e-4),
        include_dense=False, depth=2,
    )
    server.serve(PoissonArrivals(dataset, 50_000.0, seed=1).generate(300))
    requests = PoissonArrivals(dataset, 2_000_000.0, seed=2).generate(3_200)
    return server, requests


@pytest.fixture()
def served(hw, monkeypatch):
    server, requests = _warmed_server(hw)
    rec = _Recorder()
    real_stages = FlecheEmbeddingLayer.query_stages

    def query_stages(self, batch, executor, coalescer=None):
        bid = rec.batches
        rec.batches += 1
        inner = real_stages(self, batch, executor, coalescer)
        sent, stage = None, None
        while True:
            rec.batch = bid
            if stage == STAGE_COPY:
                rec.note("copy")
            try:
                stage = inner.send(sent)
            except StopIteration as stop:
                rec.batch = None
                return stop.value
            rec.batch = None
            sent = yield stage

    def wrap(owner, name, what, keep=None):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            if keep is None or keep(result):
                rec.note(what, _caller()[0])
            return result

        monkeypatch.setattr(owner, name, wrapper)

    real_unique = np.unique

    def unique(*args, **kwargs):
        name, module = _caller()
        if module.startswith(CACHE_PATH):
            rec.note("np.unique", f"{module}.{name}")
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(FlecheEmbeddingLayer, "query_stages", query_stages)
    monkeypatch.setattr(np, "unique", unique)
    wrap(SlabHashIndex, "lookup", "lookup")
    wrap(SlabHashIndex, "cold_slots", "scan")
    wrap(workflow, "deduplicate", "dedup")
    wrap(FlatCache, "index_lookup", "probe")
    wrap(FlatCache, "contains_cached", "reprobe")
    wrap(FlatCache, "_evict", "evict")
    wrap(FlatCache, "_demote_cold", "demote")
    wrap(FlatCache, "set_unified_capacity", "retune")
    # An insert that cached something (the flat cache's own counter is
    # what is under test, so the log derives it from the outcome).
    wrap(FlatCache, "admit_and_insert", "insert",
         keep=lambda result: result[0].any())
    # The batch's bookkeeping.
    wrap(FlatKeyCodec, "encode_many", "encode")
    wrap(FlatKeyCodec, "encode", "encode")
    wrap(Executor, "run", "plan")
    for name in ("launch", "copy", "host_work", "synchronize"):
        wrap(Executor, name, "charge")
    wrap(Executor, "__init__", "executor")
    wrap(pipeline, "request_columns", "read requests")
    wrap(MetricsRegistry, "inc_keys", "counters")

    report = server.serve(requests)
    return rec, report


def _per_batch(rec, what):
    return [
        sum(n for (w, _), n in rec.calls[b].items() if w == what)
        for b in range(rec.batches)
    ]


def test_one_dedup_one_probe_no_cache_path_unique(served):
    rec, report = served
    assert 40 <= rec.batches == len(report.batch_sizes)
    assert _per_batch(rec, "dedup") == [1] * rec.batches
    assert _per_batch(rec, "probe") == [1] * rec.batches
    # No np.unique anywhere on the cache path: batch keys arrive sorted
    # and distinct from the one dedup, and the pool has one slab class.
    assert sum(_per_batch(rec, "np.unique")) == 0
    assert not any(w == "np.unique" for w, _ in rec.events)


def test_lookups_are_the_probe_plus_needed_reprobes(served):
    rec, _ = served
    for b in range(rec.batches):
        lookups = {
            caller: n for (w, caller), n in rec.calls[b].items()
            if w == "lookup"
        }
        assert lookups.pop("index_lookup") == 1
        assert lookups.pop("contains_cached", 0) == _per_batch(
            rec, "reprobe")[b]
        # What is left: unified-index publishes of denied misses.
        assert set(lookups) <= {"publish_dram_pointers"}


def test_copy_stage_reprobes_only_after_a_concurrent_insert(served):
    rec, _ = served
    probed_at, copied_at = {}, {}
    for i, (what, b) in enumerate(rec.events):
        if what == "probe":
            probed_at[b] = i
        elif what == "copy":
            copied_at[b] = i
    reprobes = _per_batch(rec, "reprobe")
    inserts = [
        (i, b) for i, (what, b) in enumerate(rec.events) if what == "insert"
    ]
    concurrent = 0
    for b in range(rec.batches):
        raced = any(
            probed_at[b] < i < copied_at[b] and other != b
            for i, other in inserts
        )
        concurrent += raced
        # One dimension group: at most one re-probe per batch, and none
        # unless another batch inserted since this batch's probe.
        assert reprobes[b] <= int(raced)
    # The overload keeps two batches in flight, so both cases occur.
    assert 0 < sum(reprobes) <= concurrent < rec.batches


def test_no_lru_maintenance_pass_scans_the_index(served):
    rec, _ = served
    # Eviction, demotion and the unified index's shrink and clear pop
    # their victims from the index's recency queues: no batch scans the
    # index (the pool-accounting audit scans it, between batches).
    assert sum(_per_batch(rec, "scan")) == 0
    # ... and they ran, in the batches.
    assert sum(_per_batch(rec, "evict")) > 0
    assert sum(_per_batch(rec, "demote")) > 0
    assert _per_batch(rec, "retune") == [1] * rec.batches


def test_one_codec_call_one_plan_per_stage(served):
    rec, _ = served
    assert _per_batch(rec, "encode") == [1] * rec.batches
    # index, fetch and copy: each stage's charges are one plan.
    assert _per_batch(rec, "plan") == [3] * rec.batches
    assert sum(_per_batch(rec, "charge")) == 0


def test_one_counter_call_per_batch(served):
    rec, report = served
    # A batch's ``cache.*`` counters go to the registry in one call, as
    # its query returns.
    calls = rec.calls[None]
    assert calls["counters", "record_query_metrics"] == len(report.batch_sizes)
    assert sum(n for (w, _), n in calls.items() if w == "counters") == (
        len(report.batch_sizes)
    )
    assert sum(_per_batch(rec, "counters")) == 0


def test_a_stream_reads_its_requests_once_and_reuses_executors(served):
    rec, _ = served
    outside = rec.calls[None]
    assert outside["read requests", "serve_staged"] == 1
    # At most ``depth`` executors serve the whole stream.
    assert outside["executor", "admit"] == 2
    assert sum(_per_batch(rec, "executor")) == 0


#: Python calls into ``repro`` while the fixture's server serves its
#: 3 200 requests (numpy, stdlib and generated dataclass frames not
#: counted): about 220 a batch.  Python 3.12 inlines comprehensions, so
#: there the count may only fall.  Each table's read lays its overlay
#: through ``RowMap.read_into``: one call per table a batch (4 x 50).
#: The hit copy's spec reads its payload bytes from the cache (one
#: ``read_payload_bytes`` a batch) and the one-tier replacement path asks
#: the pool for its one class, skipping a comprehension per probe.  The
#: two registry audits of a run check one law fewer since the adaptive
#: controller's action law went (7 calls each).  A batch's ids are one
#: gather from the list's id cube, which no longer asks the dataset for
#: its table count (one ``num_tables`` call a batch, 50 in all).  Victim
#: sorts break ties by slot: the fixture's demotions pick other equal-
#: stamp entries, and the index layout that follows costs 158 calls more
#: (7 more spilled inserts, 12 more kernel specs built, 5 more inserts).
#: Victims come from the index's recency queues, not a scan: 710 calls
#: more.  Every stamp write records its slots (151 ``_note``, 183 queue
#: ``push``); the 56 pops settle 140 runs (``_settle``, 86
#: ``_distinct_sorted``) and the one clear compacts its queue
#: (``live_slots``, ``_compact``); each of the 40 evictions counts its
#: class from the pool (``_class_live``, the reclaimer's ``pending``, 40
#: more ``capacity_of`` / ``free_of``) but reads no locations' dimensions
#: and sorts no stamps (no ``victim_order``), and 57 ``is_dram_pointer``
#: / 40 ``untag`` calls and 57 ``cold_slots`` / ``columns`` scans go.
REPRO_CALLS = 11_760


def test_repro_python_calls_are_pinned(hw):
    server, requests = _warmed_server(hw)
    twin = copy.deepcopy(server, {id(hw): hw})
    # The first serve generates the reference rows the twin's serve
    # reads (their banks are process-wide), so the count does not depend
    # on what ran before in this process.
    server.serve(requests)
    root = str(Path(workflow.__file__).resolve().parents[1])
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        report = twin.serve(requests)
    finally:
        sys.setprofile(None)
    total = sum(calls.values())
    batches = len(report.batch_sizes)
    assert 40 <= batches
    if sys.version_info < (3, 12):
        assert total == REPRO_CALLS, (total, batches, calls.most_common(8))
    else:
        assert total <= REPRO_CALLS
