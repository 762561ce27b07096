"""Per-category trace filtering (DESIGN 6d, ISSUE 7 satellite).

A tracer built with ``categories={...}`` hooks only those layers at
attach time: filtered-out categories record nothing, leave their
histograms unregistered, and — for ``bus`` — never register a bus
observer. Filtering must never change simulated results.
"""

import pytest

from repro.config import KB, e6000_config
from repro.errors import ConfigError
from repro.obs import TRACE_CATEGORIES, EventKind, Tracer, parse_categories
from repro.sim.sweep import build_system
from repro.workloads.registry import generate

KIND_CATEGORY = {
    EventKind.BUS_TX: "bus",
    EventKind.MISS: "mem",
    EventKind.UPGRADE: "mem",
    EventKind.MASK_STALL: "senss",
    EventKind.AUTH_MAC: "senss",
    EventKind.PAD_HIT: "memprotect",
    EventKind.PAD_MISS: "memprotect",
    EventKind.HASH_VERIFY: "memprotect",
    EventKind.HASH_UPDATE: "memprotect",
    EventKind.RUN_SPAN: "run",
    EventKind.FAULT_INJECT: "faults",
    EventKind.FAULT_DETECT: "faults",
}


def rich_config():
    config = e6000_config(num_processors=4, senss_enabled=True,
                          auth_interval=8)
    config = config.with_l2_size(8 * KB).with_masks(1)
    return config.with_memprotect(encryption_enabled=True,
                                  integrity_enabled=True,
                                  pad_cache_entries=16)


def workload():
    return generate("fft", 4, scale=0.05, seed=3)


def run_with(categories):
    system = build_system(rich_config())
    tracer = Tracer(capacity=500_000, categories=categories)
    tracer.attach(system)
    result = system.run(workload())
    return system, tracer, result


@pytest.fixture(scope="module")
def unfiltered():
    return run_with(None)


class TestFiltering:
    @pytest.mark.parametrize("keep", ["bus", "mem", "senss",
                                      "memprotect", "run"])
    def test_only_enabled_kinds_recorded(self, keep):
        _, tracer, _ = run_with({keep})
        recorded = {KIND_CATEGORY[kind] for kind in tracer.kind_totals}
        assert recorded == {keep}

    def test_filtered_counts_match_unfiltered(self, unfiltered):
        """A senss-only tracer sees exactly the senss events a full
        tracer sees — filtering drops categories, not events."""
        _, full, _ = unfiltered
        _, filtered, _ = run_with({"senss"})
        for kind in (EventKind.MASK_STALL, EventKind.AUTH_MAC):
            assert filtered.kind_totals[kind] == full.kind_totals[kind]

    def test_results_bit_identical(self, unfiltered):
        _, _, full = unfiltered
        for categories in ({"senss"}, {"bus", "mem"}, frozenset()):
            _, _, result = run_with(categories)
            assert result.cycles == full.cycles
            assert result.per_cpu_cycles == full.per_cpu_cycles
            assert result.stats == full.stats

    def test_bus_off_keeps_scratch_route(self):
        """Without the bus category no bus observer is registered: a
        filtered tracer pays nothing per bus transaction (the slow
        path reuses its scratch transaction either way)."""
        system = build_system(rich_config())
        Tracer(categories={"senss", "mem"}).attach(system)
        assert not system.bus._observers

    def test_mem_off_skips_latency_histograms(self):
        system, tracer, _ = run_with({"senss"})
        names = set(system.stats.histogram_summaries())
        assert "obs.mask_wait_cycles" in names
        assert "obs.miss_latency" not in names
        assert "obs.pad_reuse_distance" not in names
        assert tracer._h_miss is None

    def test_run_end_metadata_survives_filtering(self):
        """workload/cycles metadata is kept even with run spans off —
        summaries and reports still need it."""
        _, tracer, result = run_with({"senss"})
        assert tracer.workload_name == "fft"
        assert max(tracer.final_clocks) == result.cycles
        assert EventKind.RUN_SPAN not in tracer.kind_totals


class TestValidation:
    def test_unknown_category_raises(self):
        with pytest.raises(ConfigError, match="unknown trace categ"):
            Tracer(categories={"bogus"})

    def test_default_is_all_categories(self):
        assert Tracer().categories == frozenset(TRACE_CATEGORIES)


class TestParseCategories:
    def test_none_and_all_mean_unfiltered(self):
        assert parse_categories(None) is None
        assert parse_categories("all") is None
        assert parse_categories("bus,all") is None
        assert parse_categories("") is None

    def test_list_parsing(self):
        assert parse_categories("bus, senss") == {"bus", "senss"}
        assert parse_categories("mem,,") == {"mem"}
