"""The fast engine must be *bit-identical* to the seed engine.

Three layers of defence:

- ``golden_engine.json`` pins cycles, per-CPU cycles, and a hash of the
  full statistics dict for every SPLASH-2 model x machine flavour x
  seed, captured from the pre-fastpath engine. Any timing drift in the
  rewrite shows up as a golden mismatch.
- ``run()`` (fast path) is compared field-for-field against
  ``run_reference()`` (the original loop, kept as the executable
  specification) on live simulations, including a SENSS machine whose
  bus layer re-enters the miss path.
- hypothesis-randomized traces (unaligned addresses, shared lines,
  mixed read/write) compared fast-vs-reference across baseline, senss
  and memprotect-integrated machines and across L1 geometries,
  including direct-mapped and associativity > 2.
"""

import hashlib
import json
import pathlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KB, CacheConfig, e6000_config
from repro.sim.sweep import build_system
from repro.smp.trace import MemoryAccess, Workload
from repro.workloads.registry import SPLASH2_NAMES, generate

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent.parent / "data"
     / "golden_engine.json").read_text())

KINDS = ("baseline", "senss", "integrated")


def config_for(kind: str):
    config = e6000_config(num_processors=GOLDEN["num_cpus"],
                          l2_mb=GOLDEN["l2_mb"],
                          senss_enabled=(kind != "baseline"))
    if kind == "integrated":
        config = config.with_memprotect(encryption_enabled=True,
                                        integrity_enabled=True)
    return config


def stats_digest(stats: dict) -> str:
    return hashlib.sha256(
        json.dumps(stats, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", SPLASH2_NAMES)
def test_golden_equivalence(name, kind):
    """Every model/flavour/seed reproduces the seed engine exactly."""
    for seed in (0, 1, 2):
        workload = generate(name, GOLDEN["num_cpus"],
                            scale=GOLDEN["scale"], seed=seed)
        result = build_system(config_for(kind)).run(workload)
        expected = GOLDEN["runs"][f"{name}|{kind}|{seed}"]
        assert workload.total_accesses == expected["total_accesses"]
        assert result.cycles == expected["cycles"], (name, kind, seed)
        assert list(result.per_cpu_cycles) == expected["per_cpu_cycles"]
        assert result.stats.get("bus.transactions", 0) == \
            expected["bus_transactions"]
        assert stats_digest(result.stats) == expected["stats_sha256"], (
            name, kind, seed)


@pytest.mark.parametrize("kind", KINDS)
def test_fast_matches_reference_engine(kind):
    """run() and run_reference() agree on every result field."""
    workload = generate("ocean", 4, scale=0.1, seed=7)
    fast = build_system(config_for(kind)).run(workload)
    reference = build_system(config_for(kind)).run_reference(workload)
    assert fast.cycles == reference.cycles
    assert list(fast.per_cpu_cycles) == list(reference.per_cpu_cycles)
    assert fast.stats == reference.stats
    assert fast.workload == reference.workload
    assert fast.num_cpus == reference.num_cpus


def test_fast_matches_reference_two_cpus():
    workload = generate("radix", 2, scale=0.1, seed=3)
    config = e6000_config(num_processors=2, l2_mb=4)
    fast = build_system(config).run(workload)
    reference = build_system(config).run_reference(workload)
    assert fast.cycles == reference.cycles
    assert fast.stats == reference.stats


# -- randomized fast-vs-reference equivalence ----------------------------

GEOMETRIES = {
    "l1_2way": None,                        # default 64K 2-way
    "l1_direct": CacheConfig(32 * KB, 1, 32, 2),
    "l1_4way": CacheConfig(8 * KB, 4, 32, 2),
}

access_strategy = st.builds(
    MemoryAccess,
    is_write=st.booleans(),
    # A small line pool plus unaligned byte offsets: heavy set reuse,
    # shared lines across CPUs, and both L1 geometric aliasing cases.
    address=st.builds(lambda line, off: line * 32 + off,
                      st.integers(0, 255), st.integers(0, 31)),
    gap=st.integers(0, 3))

trace_strategy = st.lists(
    st.lists(access_strategy, min_size=1, max_size=300),
    min_size=1, max_size=3)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("flavour", KINDS)
@given(traces=trace_strategy)
@settings(max_examples=8, deadline=None)
def test_fast_matches_reference_randomized(geometry, flavour, traces):
    """run() and run_reference() agree on random traces and geometries."""
    config = e6000_config(num_processors=len(traces),
                          senss_enabled=(flavour != "baseline"))
    if flavour == "integrated":
        config = config.with_memprotect(encryption_enabled=True,
                                        integrity_enabled=True)
    if GEOMETRIES[geometry] is not None:
        config = replace(config, l1=GEOMETRIES[geometry])
    workload = Workload("randomized", traces, validate=False)
    fast = build_system(config).run(workload)
    reference = build_system(config).run_reference(workload)
    assert fast.cycles == reference.cycles
    assert list(fast.per_cpu_cycles) == list(reference.per_cpu_cycles)
    assert fast.stats == reference.stats
