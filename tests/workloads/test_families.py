"""Scale families: every scale of a (program, CPUs, seed) served as
per-CPU prefix copies of one resumable generation."""

import hashlib
import json
import random
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import registry, splash2
from repro.workloads.registry import SPLASH2_NAMES, clear_memo, generate

#: sha256 prefixes of (columns, metadata) as generated before traces
#: were grown in families: the contract is byte identity
FROZEN = {
    ("fft", 2, 0, 0.05): "3309a9d5444d77e8d7f380d9",
    ("fft", 1, 1, 1.0): "2e9dd378d9aafd1996c5920e",
    ("radix", 1, 0, 0.05): "a6bafee489025e0861a85cb5",
    ("radix", 4, 1, 0.2): "c15e294386ef2a9a75d4cbc8",
    ("barnes", 2, 0, 0.1): "03a202ecb2364da78b507806",
    ("barnes", 4, 1, 0.05): "af6b85482a2e2e4a3606025f",
    ("lu", 2, 1, 0.2): "8dfae617e88ba7c0020de3db",
    ("lu", 4, 0, 0.05): "2758c92e6ff3cb6ef3c8b2f7",
    ("ocean", 1, 0, 0.4): "604a07e4fba90beddbac58c4",
    ("ocean", 2, 1, 0.05): "77dcb16459d8d3f6862d64bc",
}


def _digest(workload) -> str:
    digest = hashlib.sha256()
    for trace in workload.traces:
        for column in trace.columns():
            digest.update(column.typecode.encode())
            digest.update(column.tobytes())
    digest.update(json.dumps([workload.name,
                              list(workload.metadata.items())]).encode())
    return digest.hexdigest()[:24]


def _one_shot(name, num_cpus, scale, seed):
    return getattr(splash2, name)(num_cpus, scale, seed + 1)


def _same(workload, expected) -> bool:
    return (workload.name == expected.name
            and workload.traces == expected.traces
            and list(workload.metadata.items())
            == list(expected.metadata.items()))


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_memo()
    yield
    clear_memo()


def test_frozen_traces_in_shuffled_order():
    calls = sorted(FROZEN)
    random.Random(13).shuffle(calls)
    for call in calls:
        assert _digest(generate(*call[:2], scale=call[3],
                                seed=call[2])) == FROZEN[call], call


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(SPLASH2_NAMES),
       num_cpus=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 3),
       scales=st.lists(st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3, 0.4]),
                       min_size=1, max_size=4))
def test_generate_equals_one_shot_in_any_order(name, num_cpus, seed,
                                               scales):
    clear_memo()
    for scale in scales:
        assert _same(generate(name, num_cpus, scale, seed),
                     _one_shot(name, num_cpus, scale, seed))


def test_fft_unit_count_keys_its_family():
    """0.1 and 0.8 both run one tile per phase: one generation, with
    each call's own ``scale`` in its metadata."""
    small = generate("fft", 2, scale=0.1, seed=0)
    large = generate("fft", 2, scale=0.8, seed=0)
    assert small.traces == large.traces
    assert (small.metadata["scale"], large.metadata["scale"]) == (0.1, 0.8)
    assert len(registry._MEMO) == 1


def test_returned_columns_are_copies():
    first = generate("radix", 2, scale=0.05, seed=0)
    expected = _one_shot("radix", 2, 0.05, 0)
    for trace in first.traces:
        flags, addresses, gaps = trace.columns()
        addresses[0] = 0
        gaps.append(7)
    generate("radix", 2, scale=0.2, seed=0)   # grow the family
    assert first.traces[0].columns()[1][0] == 0
    assert _same(generate("radix", 2, scale=0.05, seed=0), expected)


def test_growth_leaves_earlier_workloads_alone():
    small = generate("barnes", 2, scale=0.05, seed=0)
    lengths = [len(trace) for trace in small.traces]
    generate("barnes", 2, scale=0.3, seed=0)
    assert [len(trace) for trace in small.traces] == lengths


def _memo_bytes() -> int:
    return sum(family.nbytes for family in registry._MEMO.values())


def test_memo_is_budgeted_by_bytes(monkeypatch):
    """Least recently used families go first once the columns exceed
    the byte budget; the family a call just served always stays, even
    when it alone is over budget."""
    generate("lu", 2, scale=0.02, seed=0)
    size = _memo_bytes()
    monkeypatch.setattr(registry, "_MEMO_BUDGET_BYTES", 3 * size)
    for seed in range(12):
        generate("lu", 2, scale=0.02, seed=seed)
        assert _memo_bytes() <= 3 * size
    generate("lu", 2, scale=0.02, seed=9)     # most recent again
    assert list(registry._MEMO) == [("lu", 2, 11), ("lu", 2, 12),
                                    ("lu", 2, 10)]
    generate("lu", 2, scale=0.5, seed=10)     # grows past the budget
    assert list(registry._MEMO) == [("lu", 2, 11)]
    assert _memo_bytes() > 3 * size


def test_memo_holds_the_figure_grid():
    """The Fig 6-10 grid's ten families (5 programs x {2P, 4P} at scale
    0.5) fit the default budget together, so a figure sweep builds each
    one once per process."""
    for name in SPLASH2_NAMES:
        for cpus in (2, 4):
            generate(name, cpus, scale=0.5, seed=0)
    assert len(registry._MEMO) == 10
    assert _memo_bytes() <= registry._MEMO_BUDGET_BYTES


class _YieldingMemo(OrderedDict):
    """Releases the GIL inside every lookup, so an unlocked
    lookup-then-``move_to_end`` lets another thread evict in between."""

    def get(self, key, default=None):
        found = super().get(key, default)
        time.sleep(0.0005)
        return found


def test_concurrent_generation_is_exact(monkeypatch):
    """Four threads grow, slice and evict families at once (10 seeds
    against a budget of about 8 of them); none raises and every result
    equals a one-shot generation."""
    generate("radix", 2, scale=0.05, seed=0)
    monkeypatch.setattr(registry, "_MEMO_BUDGET_BYTES", 8 * _memo_bytes())
    monkeypatch.setattr(registry, "_MEMO", _YieldingMemo())
    calls = [("radix", 2, scale, seed) for seed in range(10)
             for scale in (0.01, 0.03, 0.02, 0.05)]
    expected = {call: _one_shot(*call) for call in set(calls)}
    errors = []
    start = threading.Barrier(4, timeout=30)

    def worker(index):
        start.wait()
        order = calls[:]
        random.Random(index).shuffle(order)
        for call in order:
            try:
                workload = generate(*call)
            except Exception as error:  # pragma: no cover - the bug
                errors.append(error)
                continue
            if not _same(workload, expected[call]):
                errors.append(call)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert len(list(pool.map(worker, range(4), timeout=60))) == 4
    finally:
        sys.setswitchinterval(switch_interval)
    assert errors == []
