"""Tests for tools/guard_opcodes.py (the disabled-hook budgets' meter)."""

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
import guard_opcodes  # noqa: E402


@pytest.fixture(scope="module")
def two_runs():
    """fft 2P integrated at scale 0.01: every hook family's sites run
    (bus, SENSS, pad cache, hash tree) in a few seconds."""
    from repro.config import e6000_config
    from repro.workloads.registry import generate

    workload = generate("fft", 2, scale=0.01, seed=0)
    config = e6000_config(num_processors=2).with_memprotect(
        encryption_enabled=True, integrity_enabled=True)
    guards = guard_opcodes.guard_lines()
    return [guard_opcodes.count_run(config, workload, guards)
            for _ in range(2)]


def test_counts_are_identical_across_runs(two_runs):
    first, second = two_runs
    assert first == second
    assert first["opcodes"] > 0


@pytest.mark.parametrize("family", guard_opcodes.FAMILIES)
def test_every_hook_family_executes(two_runs, family):
    """A renamed hook attribute would drop its guards from the scan
    and silently zero its budget; each family must be seen running."""
    counts = two_runs[0]
    assert counts["guard_lines"][family] >= 1
    assert counts["guard_opcodes"][family] > 0
    assert 0 < guard_opcodes.share_percent(counts, family) < 100


def test_count_opcodes_attributes_guard_lines(tmp_path):
    module = tmp_path / "hooked.py"
    module.write_text(
        "def step(self):\n"
        "    total = 1\n"
        "    if self.fault_hook is not None:\n"
        "        total += 1\n"
        "    return total\n")
    guards = {str(module.resolve()): guard_opcodes._guards_in(
        ast.parse(module.read_text()))}
    namespace = {}
    exec(compile(module.read_text(), str(module.resolve()), "exec"),
         namespace)
    hooks = type("Hooks", (), {"fault_hook": None})()
    counts = guard_opcodes.count_opcodes(lambda: namespace["step"](hooks),
                                         guards)
    assert counts["guard_lines"] == {"observer": 0, "fault_hook": 1,
                                     "bus_observers": 0}
    assert 0 < counts["guard_opcodes"]["fault_hook"] < counts["opcodes"]
