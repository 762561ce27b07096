"""ColumnarTrace: the array-backed trace container behind workloads."""

import pytest

from repro.config import KB, e6000_config
from repro.errors import TraceError
from repro.sim.sweep import build_system
from repro.smp.fastpath import _finish_run, _run_loop, new_counters
from repro.smp.trace import ColumnarTrace, MemoryAccess, Workload
from repro.workloads.registry import generate

ACCESSES = [MemoryAccess(False, 0x100, 2),
            MemoryAccess(True, 0x140, 0),
            MemoryAccess(False, 0x100, 5)]


def make_trace() -> ColumnarTrace:
    return ColumnarTrace.from_accesses(ACCESSES)


def test_roundtrip_and_len():
    trace = make_trace()
    assert len(trace) == 3
    assert list(trace) == ACCESSES
    assert trace[1] == MemoryAccess(True, 0x140, 0)
    assert trace[-1] == ACCESSES[-1]


def test_slice_returns_columnar():
    head = make_trace()[:2]
    assert isinstance(head, ColumnarTrace)
    assert list(head) == ACCESSES[:2]


def test_equality_across_representations():
    trace = make_trace()
    assert trace == make_trace()
    assert trace == list(ACCESSES)
    assert trace == tuple(ACCESSES)
    assert trace != ACCESSES[:2]
    assert ColumnarTrace() == []


def test_append():
    trace = ColumnarTrace()
    for access in ACCESSES:
        trace.append(access.is_write, access.address, access.gap)
    assert trace == make_trace()


def test_relocated():
    moved = make_trace().relocated(0x1000)
    assert [access.address for access in moved] == \
        [0x1100, 0x1140, 0x1100]
    assert [access.is_write for access in moved] == \
        [access.is_write for access in ACCESSES]


def test_columns():
    writes, addresses, gaps = make_trace().columns()
    assert list(writes) == [0, 1, 0]
    assert list(addresses) == [0x100, 0x140, 0x100]
    assert list(gaps) == [2, 0, 5]


def test_workload_converts_row_traces_once(monkeypatch):
    """A workload built from ``MemoryAccess`` lists holds columnar
    traces: both engines agree on it, and a run paused and resumed in
    chunks reads those columns without converting again."""
    source = generate("fft", 2, scale=0.02, seed=0)
    rows = [list(trace) for trace in source.traces]
    conversions = []
    convert = ColumnarTrace.from_accesses.__func__

    def counting(cls, accesses):
        conversions.append(cls)
        return convert(cls, accesses)

    monkeypatch.setattr(ColumnarTrace, "from_accesses",
                        classmethod(counting))
    workload = Workload("fft-rows", rows)
    assert all(isinstance(trace, ColumnarTrace)
               for trace in workload.traces)
    assert workload.traces == source.traces
    config = e6000_config(num_processors=2).with_l2_size(64 * KB)
    expected = build_system(config).run_reference(workload)
    assert build_system(config).run(workload) == expected
    system = build_system(config)
    clocks, cursors, counters = [0, 0], [0, 0], new_counters(2)
    chunks = 0
    while _run_loop(system, workload, clocks, cursors, counters,
                    stop_accesses=5000):
        chunks += 1
    assert chunks > 1
    assert _finish_run(system, workload, clocks, counters) == expected
    assert len(conversions) == workload.num_cpus


def test_validate_rejects_bad_records():
    bad = ColumnarTrace.from_accesses([MemoryAccess(False, -4, 0)])
    with pytest.raises(TraceError):
        bad.validate(0)
    with pytest.raises(TraceError):
        ColumnarTrace.from_accesses(
            [MemoryAccess(False, 4, -1)]).validate(0)


def test_workload_validates_columnar_traces():
    with pytest.raises(TraceError):
        Workload("bad",
                 [ColumnarTrace.from_accesses([MemoryAccess(False, -4, 0)])])


def test_workload_validate_flag_skips_the_scan():
    """validate=False admits records the validating path rejects —
    proof that truncated()/combine() copies skip the O(n) re-scan."""
    trace = ColumnarTrace.from_accesses([MemoryAccess(False, -4, 0)])
    workload = Workload("trusted", [trace], validate=False)
    assert workload.total_accesses == 1


def test_truncated_skips_revalidation():
    traces = [ColumnarTrace.from_accesses(ACCESSES)]
    workload = Workload("toy", traces)
    short = workload.truncated(2)
    assert short.total_accesses == 2
    assert isinstance(short.accesses_for(0), ColumnarTrace)
