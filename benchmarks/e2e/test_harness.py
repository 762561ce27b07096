"""Tests of the benchmark harness itself (not of the simulator).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import common
import compare
import spans
import workloads


class FakeClock:
    """A perf_counter_ns stand-in advanced explicitly by the test."""

    def __init__(self):
        self.now = 1_000

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_of_nested_spans_adds_up_to_root():
    clock = FakeClock()
    tracer = spans.Tracer(("smp.slowpath", "bus.issue", "senss"), clock)

    def bus(cost):
        clock.advance(cost)

    bus = tracer._wrap(bus, "bus.issue", "bus")

    def senss():
        clock.advance(3)
        bus(10)               # a MAC broadcast re-enters the bus
        clock.advance(2)

    senss = tracer._wrap(senss, "senss", "senss")

    def miss():
        clock.advance(7)
        bus(20)
        senss()
        clock.advance(1)

    miss = tracer._wrap(miss, "smp.slowpath", "miss")
    with tracer.root("point"):
        clock.advance(4)
        miss()
        miss()
        clock.advance(5)
    totals, _ = tracer.totals()
    assert totals["smp.slowpath"] == [2, 2 * 43, 2 * 8]
    assert totals["senss"] == [2, 2 * 15, 2 * 5]
    assert totals["bus.issue"] == [4, 2 * 30, 2 * 30]
    layer_self, unattributed, root = tracer.root_identity()
    assert unattributed == 9
    assert layer_self + unattributed == root == 9 + 2 * 43


def test_same_layer_nesting_counts_one_call():
    clock = FakeClock()
    tracer = spans.Tracer(("coherence",), clock)

    def base():
        clock.advance(5)

    base = tracer._wrap(base, "coherence", "base")

    def override():
        clock.advance(2)
        base()

    override = tracer._wrap(override, "coherence", "override")
    with tracer.root():
        override()
    totals, _ = tracer.totals()
    assert totals["coherence"] == [1, 7, 7]


def test_install_restores_every_attribute():
    from repro.bus.bus import SharedBus
    from repro.workloads import registry
    original_issue = SharedBus.__dict__["issue"]
    original_generate = registry.generate
    with spans.Tracer(("bus.issue", "workloads.generate")):
        assert SharedBus.__dict__["issue"] is not original_issue
        assert registry.generate is not original_generate
    assert SharedBus.__dict__["issue"] is original_issue
    assert registry.generate is original_generate


def test_traced_point_matches_untraced_and_fills_every_layer_metric():
    from repro.sim.sweep import run_point
    point = workloads.missheavy_points(0, scale=0.02)[2]
    expected = run_point(point)
    with spans.Tracer() as tracer:
        with tracer.root("p"):
            traced = run_point(point)
    assert traced == expected
    totals, counts = tracer.totals()
    layer_self, unattributed, root = tracer.root_identity()
    assert layer_self + unattributed == root
    metrics = spans.layer_metrics(totals, counts, {
        "memprotect.pad_hit_ratio": 0.0, "memprotect.hash_hit_ratio": 0.0,
        "trace.root_s": spans.seconds(root),
        "unattributed_s": spans.seconds(unattributed),
        "trace_overhead_pct": 0.0})
    assert [name for name in metrics] == \
        [name for name, _, _ in spans.PER_LAYER_METRICS]
    assert metrics["smp.slowpath.calls"]["value"] > 0
    assert metrics["memprotect.calls"]["value"] > 0
    assert metrics["smp.accesses"]["value"] == sum(
        value for name, value in expected.stats.items()
        if name.endswith((".l1_hit", ".l2_hit", ".l2_miss",
                          ".upgrade_needed")))


def test_percentile_and_sample_count_helper():
    values = list(range(1, 101))
    summary = common.latency_summary(values)
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.1)
    assert common.percentile([3.0], 0.9) == 3.0
    quart = common.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (quart["q1"], quart["median"], quart["q3"]) == (2.0, 3.0, 4.0)


def _result(stats, cycles=10):
    return SimpleNamespace(cycles=cycles, per_cpu_cycles=[cycles, 1],
                           stats=stats)


def test_digest_ignores_result_and_dict_order():
    a = _result({"x": 1, "y": 2})
    b = _result({"y": 2, "x": 1})
    c = _result({"z": 3}, cycles=11)
    assert common.result_digest([("k1", a), ("k2", c)]) == \
        common.result_digest([("k2", c), ("k1", b)])
    assert common.result_digest([("k1", a)]) != \
        common.result_digest([("k1", c)])


def test_report_digest_strips_fork_bookkeeping():
    forked = {"fork": True, "forked_cells": 2,
              "entries": [{"kind": "drop", "forked": True}]}
    cold = {"fork": False, "forked_cells": 0,
            "entries": [{"kind": "drop", "forked": False}]}
    assert common.report_digest(forked) == common.report_digest(cold)


def test_cold_and_forked_tiny_point_digest_equal(tmp_path):
    from repro.sim.sweep import point_key, run_point, run_sweep
    family = workloads.fork_families(0, scales=(0.02, 0.04))[0][1]
    forked = run_sweep(family, parallel=False,
                       checkpoint_dir=tmp_path / "store")
    cold = [run_point(point) for point in family]
    keys = [point_key(point) for point in family]
    assert common.result_digest(zip(keys, forked)) == \
        common.result_digest(zip(keys, cold))


def test_open_loop_schedule_is_deterministic_per_seed():
    first = workloads.open_loop_schedule(7, 5.0)
    assert first == workloads.open_loop_schedule(7, 5.0)
    assert first != workloads.open_loop_schedule(8, 5.0)
    assert all(0 <= due < 5.0 for due in first)
    assert first == sorted(first)
    assert 90 <= len(first) <= 210          # Poisson(150)
    jobs = workloads.serve_jobs(7, "open", len(first), 1000)
    assert jobs == workloads.serve_jobs(7, "open", len(first), 1000)
    intervals = [points[0].config.senss.auth_interval
                 for _, points in jobs]
    assert len(set(intervals)) == len(intervals)


BOUNDS = {"end_to_end": [{"name": "batch_s", "unit": "s",
                          "better": "lower", "bound": 0.1}],
          "per_layer": []}


def _runs(values, workload="fork", failed=0, seeds=None):
    return [{"workload": workload, "seed": seed, "correct": not failed,
             "attempted": 10, "failed": failed,
             "metrics": {"batch_s": {"value": value, "unit": "s"}}}
            for seed, value in zip(seeds or range(len(values)), values)]


def _verdicts(a_runs, b_runs):
    rows, _ = compare.compare(a_runs, b_runs, BOUNDS)
    return {row["metric"]: row["verdict"] for row in rows}


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [9.0, 9.1, 8.9, 9.0, 9.2, 8.8, 9.0, 9.1, 8.9, 9.0], "better"),
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [12.0, 12.1, 11.9, 12.0, 12.2, 11.8, 12.0, 12.1, 11.9, 12.0],
     "worse"),
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0], "same"),
    ([6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0],
     [10.5, 10.6, 10.4, 10.5, 10.6, 10.4, 10.5, 10.6, 10.4, 10.5],
     "unresolved"),
    # three wins out of three pairs are too few for a gain
    ([10.0, 10.1, 9.9], [9.0, 9.1, 8.9], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    assert _verdicts(_runs(a), _runs(b)) == \
        {"batch_s": expected, "failed_frac": "same"}


def test_compare_needs_nine_of_ten_wins_for_a_gain():
    a = [10.0] * 10
    b = [9.0] * 8 + [10.5, 10.5]
    row = compare.compare(_runs(a), _runs(b), BOUNDS)[0][0]
    assert row["win_share"] == pytest.approx(0.8)
    assert row["verdict"] == "same"


def test_compare_never_rates_a_failing_change_better():
    a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    b = [value - 1.0 for value in a]
    assert _verdicts(_runs(a), _runs(b, failed=1)) == \
        {"batch_s": "unresolved", "failed_frac": "worse"}
    # an invalid run (a late serve generator) is no better
    invalid = _runs(b)
    invalid[3]["detail"] = {"valid": False}
    assert _verdicts(_runs(a), invalid) == \
        {"batch_s": "unresolved", "failed_frac": "worse"}


def test_compare_pairs_by_seed_and_reports_the_unpaired():
    a = _runs([10.0, 11.0, 12.0], seeds=[0, 1, 2])
    b = _runs([10.0, 11.0, 12.0, 13.0], seeds=[2, 1, 0, 3])
    rows, unpaired = compare.compare(a, b, BOUNDS)
    assert rows[0]["pairs"] == 3
    assert rows[0]["win_share"] == pytest.approx(1 / 3)   # seed 2 only
    assert unpaired == [("B", "fork", 3, 0)]


def test_benchmark_json_matches_the_harness():
    benchmark = json.loads(common.BENCHMARK_JSON.read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in benchmark["workloads"]] == \
        list(common.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["per_layer"]] == \
        list(spans.PER_LAYER_METRICS)
    names = {m["name"] for m in benchmark["end_to_end"]}
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    golden = common.load_golden()
    assert sorted(golden) == sorted(common.WORKLOADS)
    assert all(sorted(seeds) == sorted(map(str, common.GOLDEN_SEEDS))
               for seeds in golden.values())


def test_run_fails_without_simulator_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files, the run must fail without printing a result."""
    import shutil
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(common.E2E_DIR, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, str(target / "run.py"),
                           "--workload", "figures", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_run_refuses_knobs_that_change_the_measurement():
    env = {"PATH": "/usr/bin:/bin", "REPRO_SWEEP_WORKERS": "1"}
    done = subprocess.run([sys.executable, str(common.E2E_DIR / "run.py"),
                           "--workload", "fork"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_SWEEP_WORKERS" in done.stderr
