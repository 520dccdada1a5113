"""Every fault-schedule query reads one step function per event type and
target: the scalar queries, the ``*_many`` array forms and a direct scan
of the events agree at every window edge and one ulp either side."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import (
    DegradedLink,
    DramTierFailure,
    FaultSchedule,
    HeartbeatLoss,
    ReplicaCrash,
    ReplicaSlowdown,
    ShardOutage,
    SlowSubscriber,
    TransientTimeout,
    UpdateLogOutage,
)

TARGETS = (0, 1, 2)

_start = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_duration = st.sampled_from([0.25, 0.5, 1.0, 2.0, float("inf")])
_factor = st.sampled_from([1.0, 2.0, 4.0, 10.0])
_target = st.sampled_from(TARGETS)

_events = st.one_of(
    st.builds(TransientTimeout, start=_start, duration=_duration,
              probability=st.sampled_from([0.0, 0.05, 0.5, 1.0])),
    st.builds(DegradedLink, start=_start, duration=_duration, factor=_factor),
    st.builds(ShardOutage, start=_start, duration=_duration, shard=_target),
    st.builds(DramTierFailure, start=_start, duration=_duration),
    st.builds(UpdateLogOutage, start=_start, duration=_duration),
    st.builds(SlowSubscriber, start=_start, duration=_duration,
              factor=_factor),
    st.builds(ReplicaCrash, start=_start, duration=_duration,
              replica=_target),
    st.builds(ReplicaSlowdown, start=_start, duration=_duration,
              replica=_target, factor=_factor),
    st.builds(HeartbeatLoss, start=_start, duration=_duration,
              replica=_target),
)


def _active(events, kind, now, **target):
    return [
        e for e in events
        if isinstance(e, kind) and e.start <= now < e.start + e.duration
        and all(getattr(e, k) == v for k, v in target.items())
    ]


def _edges(events):
    """Every window edge, one ulp either side, and the origin."""
    edges = {0.0}
    for e in events:
        for edge in (e.start, e.end):
            if np.isfinite(edge):
                edges.update((edge, np.nextafter(edge, -np.inf),
                              np.nextafter(edge, np.inf)))
    return sorted(float(t) for t in edges)


@settings(max_examples=150, deadline=None)
@given(st.lists(_events, max_size=8))
def test_scalar_many_and_scan_agree_at_every_edge(events):
    schedule = FaultSchedule(events)
    times = _edges(events)
    for now in times:
        assert schedule.timeout_probability(now) == max(
            (e.probability for e in _active(events, TransientTimeout, now)),
            default=0.0)
        assert schedule.link_factor(now) == max(
            (e.factor for e in _active(events, DegradedLink, now)),
            default=1.0)
        assert schedule.dram_down(now) == bool(
            _active(events, DramTierFailure, now))
        assert schedule.update_log_down(now) == bool(
            _active(events, UpdateLogOutage, now))
        assert schedule.subscriber_slow_factor(now) == max(
            (e.factor for e in _active(events, SlowSubscriber, now)),
            default=1.0)
        for target in TARGETS:
            assert schedule.shard_down(target, now) == bool(
                _active(events, ShardOutage, now, shard=target))
            assert schedule.replica_crashed(target, now) == bool(
                _active(events, ReplicaCrash, now, replica=target))
            assert schedule.heartbeat_lost(target, now) == bool(
                _active(events, HeartbeatLoss, now, replica=target))
            assert schedule.replica_slow_factor(target, now) == max(
                (e.factor for e in _active(
                    events, ReplicaSlowdown, now, replica=target)),
                default=1.0)
    array = np.asarray(times)
    for target in TARGETS:
        assert schedule.crashed_many(target, array).tolist() == [
            schedule.replica_crashed(target, now) for now in times]
        assert schedule.slow_factor_many(target, array).tolist() == [
            schedule.replica_slow_factor(target, now) for now in times]
