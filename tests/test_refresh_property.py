"""Stateful property test for the update log and subscriber.

A ``RuleBasedStateMachine`` drives a trainer/publisher pair against two
replicas of the same flat cache: a *steady* replica that applies every
batch as it lands, and a *lagging* replica that applies only when the
machine decides to.  Invariants checked continuously:

- log offsets are dense and monotonic; replay is deterministic;
- the stream-conservation audit (carried + applied + dropped == keys
  through the applied offset) holds on the steady replica's registry;
- at any point, snapshotting the lagging replica, restoring the
  snapshot into a cold cache, and replaying the tail converges to the
  exact fingerprint of the steady replica.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.config import FlecheConfig
from repro.core.flat_cache import FlatCache
from repro.model.trainer import delta_vectors
from repro.obs import MetricsRegistry, install_conservation_laws
from repro.refresh import (
    UpdateLog,
    UpdatePublisher,
    UpdateSubscriber,
    fingerprint,
)
from repro.tables.table_spec import make_table_specs

DIM = 8
CORPUS = 64


def _build_cache():
    specs = make_table_specs([CORPUS, CORPUS], [DIM, DIM])
    cache = FlatCache(
        specs, FlecheConfig(cache_ratio=0.5, unified_index_fraction=1.0)
    )
    cache.set_unified_capacity(40)
    cache.tick()
    return cache


class RefreshMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.log = UpdateLog()
        self.publisher = UpdatePublisher(self.log, max_batch_keys=16)
        self.registry = MetricsRegistry()
        install_conservation_laws(self.registry)
        self.steady = _build_cache()
        self.steady_sub = UpdateSubscriber(self.log, self.steady)
        self.steady_sub.bind_observability(self.registry)
        self.lagging = _build_cache()
        self.lagging_sub = UpdateSubscriber(self.log, self.lagging)
        self.version = 0
        self.now = 1.0
        self.offsets = []

    @rule(
        table=st.integers(0, 1),
        ids=st.lists(
            st.integers(0, CORPUS - 1), min_size=1, max_size=12, unique=True
        ),
    )
    def publish_round(self, table, ids):
        feature_ids = np.asarray(sorted(ids), dtype=np.uint64)
        self.version += 1
        self.publisher.stage(
            table,
            feature_ids,
            delta_vectors(table, feature_ids, DIM, self.version),
        )
        self.offsets.extend(self.publisher.publish(self.version, self.now))
        self.now += 1.0
        self.steady_sub.catch_up(self.now)

    @rule()
    def lagging_applies_one(self):
        self.lagging_sub.apply_next(self.now)

    @rule()
    def lagging_recovers_from_snapshot(self):
        snap = self.lagging_sub.snapshot()
        cold = _build_cache()
        self.lagging_sub = UpdateSubscriber.from_snapshot(
            snap, cold, self.log
        )
        self.lagging = cold

    @invariant()
    def offsets_are_dense(self):
        if hasattr(self, "offsets"):
            assert self.offsets == list(range(len(self.offsets)))

    @invariant()
    def replay_is_deterministic(self):
        if not getattr(self, "offsets", None):
            return
        once = [
            (b.offset, b.model_version, b.num_keys)
            for b in map(self.log.read, range(self.log.next_offset))
        ]
        again = [
            (b.offset, b.model_version, b.num_keys)
            for b in map(self.log.read, range(self.log.next_offset))
        ]
        assert once == again

    @invariant()
    def stream_conservation_holds(self):
        if hasattr(self, "registry"):
            assert self.registry.audit() == []

    @invariant()
    def recovery_converges_to_steady_replica(self):
        if not hasattr(self, "log"):
            return
        snap = self.lagging_sub.snapshot()
        cold = _build_cache()
        restored = UpdateSubscriber.from_snapshot(snap, cold, self.log)
        restored.catch_up(self.now)
        assert restored.applied_offset == self.steady_sub.applied_offset
        assert restored.applied_version == self.steady_sub.applied_version
        assert fingerprint(cold) == fingerprint(self.steady)


RefreshMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestRefreshMachine = RefreshMachine.TestCase
