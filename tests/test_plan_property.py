"""Property tests for the two per-batch bookkeeping paths that must be
bit for bit the per-event ones they replace.

* ``Executor.run(plan)`` charges a stage's operations in one call; it must
  leave the CPU clock, every stream's ready time and every
  ``TimeBreakdown`` entry equal, as floats, to issuing the same operations
  one call at a time.
* ``MetricsRegistry.inc_keys`` takes a query's increments by precomputed
  key in one call; the same increments (labelled and unlabelled, integer
  and float) must give an equal ``snapshot()`` to one ``inc`` call each,
  and a forged counter must still trip ``AuditError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_platform
from repro.errors import AuditError
from repro.gpusim.executor import COPY, HOST, LAUNCH, SYNC, Executor
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.stats import Category
from repro.obs.registry import MetricsRegistry, install_conservation_laws

HW = default_platform()
STREAMS = ("stream0", "main", "copy", "dense")
CATEGORIES = tuple(Category)

specs = st.builds(
    KernelSpec,
    name=st.sampled_from(("index", "copy", "restore")),
    threads=st.integers(0, 1 << 16),
    stream_bytes=st.integers(0, 1 << 22),
    random_transactions=st.integers(0, 1 << 12),
    dependent_hops=st.floats(0.0, 4.0),
)
stream_or_none = st.one_of(st.none(), st.sampled_from(STREAMS))
operations = st.one_of(
    st.tuples(st.just(LAUNCH), specs, stream_or_none,
              st.sampled_from(CATEGORIES)),
    st.tuples(st.just(COPY), st.integers(0, 1 << 20),
              st.sampled_from(CATEGORIES), stream_or_none),
    st.tuples(st.just(HOST), st.floats(0.0, 1e-4),
              st.sampled_from(CATEGORIES)),
    st.tuples(st.just(SYNC), stream_or_none),
)


def _bind(executor, op):
    """Name a plan operation's streams on ``executor``."""
    kind = op[0]
    if kind == LAUNCH:
        stream = op[2] and executor.stream(op[2])
        return (LAUNCH, op[1], stream, op[3])
    if kind == COPY:
        return (COPY, op[1], op[2], op[3] and executor.stream(op[3]))
    if kind == SYNC:
        return (SYNC, op[1] and executor.stream(op[1]))
    return op


def _state(executor):
    return (
        executor.cpu.now,
        executor.cpu.active,
        executor.elapsed(),
        {name: executor.stream(name).ready_time for name in STREAMS},
        dict(executor.stats.seconds),
        dict(executor.stats.counters),
    )


@settings(max_examples=150, deadline=None)
@given(stages=st.lists(st.lists(operations, max_size=12), max_size=5),
       reuse=st.booleans())
def test_plan_equals_one_call_at_a_time(stages, reuse):
    planned, reference = Executor(HW), Executor(HW)
    if reuse:
        # A reused executor (as the serving loop keeps one per lane)
        # starts from a reset, streams already created.
        for executor in (planned, reference):
            executor.run_each([_bind(executor, op) for op in stages[0]]
                              if stages else [])
            executor.reset()
    for stage in stages:
        planned.run([_bind(planned, op) for op in stage])
        reference.run_each([_bind(reference, op) for op in stage])
        assert _state(planned) == _state(reference)


def test_plan_rejects_what_the_calls_reject():
    executor = Executor(HW)
    with pytest.raises(Exception) as planned:
        executor.run([(HOST, 1e-6, Category.OTHER), (HOST, -1.0, Category.OTHER)])
    # What ran before the bad operation stays charged.
    assert executor.cpu.now == 1e-6
    with pytest.raises(type(planned.value)):
        Executor(HW).run_each([(HOST, -1.0, Category.OTHER)])


names = st.sampled_from(("cache.hits", "cache.misses", "cache.lookups",
                         "faults.breaker_open_time"))
labels = st.one_of(st.just({}), st.fixed_dictionaries(
    {"table": st.sampled_from(("0", "1"))}))
values = st.one_of(st.integers(0, 50), st.floats(0.0, 10.0))
increments = st.lists(st.tuples(names, values, labels), max_size=40)


def _key(name, label):
    return (name, tuple(sorted((k, str(v)) for k, v in label.items())))


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(increments, max_size=6))
def test_keyed_counters_equal_per_event_counters(batches):
    keyed, reference = MetricsRegistry(), MetricsRegistry()
    for batch in batches:
        keyed.inc_keys([(_key(name, label), value)
                        for name, value, label in batch])
        for name, value, label in batch:
            reference.inc(name, value, **label)
        assert keyed.snapshot().counters == reference.snapshot().counters


@settings(max_examples=50, deadline=None)
@given(hits=st.integers(0, 20), misses=st.integers(0, 20),
       forged=st.integers(1, 5))
def test_forged_counter_still_trips_audit(hits, misses, forged):
    registry = install_conservation_laws(MetricsRegistry())
    registry.inc("cache.lookups", hits + misses)
    registry.inc("cache.table_lookups", hits + misses, table=0)
    registry.inc("cache.hits", hits)
    registry.inc("cache.misses", misses)
    registry.check()
    # A forged increment is caught whether it came one at a time or
    # with a query's precomputed keys.
    registry.inc("cache.hits", forged)
    with pytest.raises(AuditError):
        registry.check()
    registry.inc("cache.misses", 0)
    registry.inc_keys([(("cache.lookups", ()), forged + 1)])
    with pytest.raises(AuditError):
        registry.check()
