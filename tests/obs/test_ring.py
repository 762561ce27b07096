"""The columnar event log: lossless, bounded and off."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs import Tracer
from repro.obs.ring import EventKind, EventLog, TraceEvent


def test_capacity_must_not_be_negative():
    with pytest.raises(ConfigError):
        EventLog(-1)
    assert EventLog(0).capacity == 0
    assert EventLog().capacity is None


def test_record_and_read_back():
    log = EventLog(8)
    log.record(EventKind.MISS, 100, 20, 1, 0xABC0, 2, 3)
    events = list(log)
    assert events == [TraceEvent(EventKind.MISS, 100, 20, 1,
                                 0xABC0, 2, 3)]
    assert len(log) == 1
    assert log.total_recorded == 1
    assert log.dropped == 0


def test_defaults_for_payload_words():
    log = EventLog(4)
    log.record(EventKind.BUS_TX, 5, 0, 0)
    assert list(log)[0] == TraceEvent(EventKind.BUS_TX, 5, 0, 0,
                                      0, 0, 0)


def test_wraps_overwriting_oldest():
    log = EventLog(4)
    for index in range(10):
        log.record(EventKind.BUS_TX, index, 0, 0, index)
    assert log.total_recorded == 10
    assert log.dropped == 6
    assert len(log) == 4
    # Oldest-first iteration over the surviving tail.
    assert [event.cycle for event in log] == [6, 7, 8, 9]
    assert [event.a0 for event in log] == [6, 7, 8, 9]
    assert log.columns()["a0"] == [6, 7, 8, 9]


def test_iteration_order_before_wrap():
    log = EventLog(8)
    for index in range(5):
        log.record(EventKind.MISS, index * 10, 1, index % 2)
    assert [event.cycle for event in log] == [0, 10, 20, 30, 40]


def test_trimming_keeps_memory_bounded():
    log = EventLog(16)
    for index in range(10_000):
        log.record(EventKind.BUS_TX, index, 0, 0)
        assert len(log._words) <= 7 * (2 * 16 + 1)
    assert [event.cycle for event in log] == list(range(9984, 10_000))


def test_counts_by_kind():
    log = EventLog(16)
    log.record(EventKind.MISS, 0, 0, 0)
    log.record(EventKind.MISS, 1, 0, 0)
    log.record(EventKind.AUTH_MAC, 2, 0, 0)
    assert log.counts_by_kind() == {EventKind.MISS: 2,
                                    EventKind.AUTH_MAC: 1}


def test_counts_by_kind_includes_dropped():
    log = EventLog(2)
    log.record(EventKind.MISS, 0, 0, 0)
    for cycle in range(1, 9):
        log.record(EventKind.UPGRADE, cycle, 0, 0)
    assert log.dropped == 7
    assert [event.kind for event in log] == [EventKind.UPGRADE] * 2
    assert log.counts_by_kind() == {EventKind.MISS: 1,
                                    EventKind.UPGRADE: 8}


def test_every_kind_is_distinct():
    assert len(set(EventKind.ALL)) == len(EventKind.ALL)


def test_pickled_tracer_records_into_its_own_log():
    """A tracer's bound ``record`` survives pickling (recorded
    snapshots pickle the recorder) still bound to the tracer's log."""
    tracer = Tracer(capacity=None)
    tracer.on_auth_mac(0, 1, 100)
    restored = pickle.loads(pickle.dumps(tracer))
    restored.on_auth_mac(0, 1, 150)
    assert restored.log.total_recorded == 2
    assert [event.a1 for event in restored.log] == [-1, 50]
    assert tracer.log.total_recorded == 1


WORD = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
EVENTS = st.lists(st.tuples(st.sampled_from(EventKind.ALL), WORD, WORD,
                            WORD, WORD, WORD, WORD), max_size=120)


@settings(max_examples=150, deadline=None)
@given(EVENTS, st.sampled_from([0, 1, 2, 3, 7, 16, None]))
def test_bounded_log_is_the_window_of_a_lossless_one(events, capacity):
    """A log of ``capacity`` N holds exactly the last N events of the
    lossless log fed the same stream, counts the rest as dropped and
    still totals every kind; capacity 0 holds and counts nothing."""
    lossless, bounded = EventLog(), EventLog(capacity)
    for event in events:
        lossless.record(*event)
        bounded.record(*event)
    assert list(lossless) == [TraceEvent(*event) for event in events]
    if capacity == 0:
        assert list(bounded) == [] and len(bounded) == 0
        assert bounded.total_recorded == bounded.dropped == 0
        assert bounded.counts_by_kind() == {}
        assert bounded.columns()["kind"] == []
        return
    window = list(lossless)
    if capacity is not None:
        window = window[max(0, len(window) - capacity):]
    assert list(bounded) == window
    assert len(bounded) == len(window)
    assert bounded.total_recorded == lossless.total_recorded \
        == len(events)
    assert bounded.dropped == len(events) - len(window)
    assert bounded.counts_by_kind() == lossless.counts_by_kind()
    assert bounded.columns() == {
        name: [getattr(event, name) for event in window]
        for name in TraceEvent._fields}
