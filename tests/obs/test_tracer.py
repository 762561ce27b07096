"""The Tracer: layer hooks, pairing, and the zero-interference rule."""

import pytest

from repro.bus.transaction import BusTransaction, TransactionType
from repro.config import KB, e6000_config
from repro.obs import EventKind, Tracer
from repro.obs.tracer import (AUTH_INTERVAL_GAP, MASK_WAIT, MISS_LATENCY,
                              PAD_REUSE_DISTANCE, TX_TYPE_INDEX,
                              UPGRADE_LATENCY)
from repro.sim.sweep import build_system
from repro.workloads.registry import generate


def rich_config():
    """A machine whose runs exercise every instrumented layer: tiny
    L2 (miss-heavy, dirty evictions), one mask (readiness stalls),
    short auth interval (checkpoints), finite pad cache (hits AND
    misses), full memory protection (hash climbs and updates)."""
    config = e6000_config(num_processors=4, senss_enabled=True,
                          auth_interval=8)
    config = config.with_l2_size(8 * KB).with_masks(1)
    return config.with_memprotect(encryption_enabled=True,
                                  integrity_enabled=True,
                                  pad_cache_entries=16)


def rich_workload():
    return generate("fft", 4, scale=0.05, seed=3)


@pytest.fixture(scope="module")
def traced_run():
    system = build_system(rich_config())
    tracer = Tracer(capacity=500_000).attach(system)
    result = system.run(rich_workload())
    return system, tracer, result


class TestEventCoverage:
    def test_every_event_kind_is_emitted(self, traced_run):
        _, tracer, _ = traced_run
        # Fault events only exist when an injected fault fires; their
        # coverage is pinned by tests/faults/test_obs.py.
        expected = set(EventKind.ALL) - {EventKind.FAULT_INJECT,
                                         EventKind.FAULT_DETECT}
        assert set(tracer.kind_totals) == expected
        assert tracer.log.dropped == 0

    def test_bus_events_match_bus_counter(self, traced_run):
        _, tracer, result = traced_run
        assert tracer.kind_totals[EventKind.BUS_TX] == \
            result.stats["bus.transactions"]

    def test_miss_events_match_miss_counters(self, traced_run):
        _, tracer, result = traced_run
        misses = sum(value for name, value in result.stats.items()
                     if name.endswith("l2_miss"))
        # Hash-node fetches are misses the tracer sees but the per-CPU
        # l2_miss counters attribute to the same slow path.
        assert tracer.kind_totals[EventKind.MISS] == misses
        upgrades = sum(value for name, value in result.stats.items()
                       if name.endswith("upgrade_needed"))
        assert tracer.kind_totals[EventKind.UPGRADE] == upgrades

    def test_auth_checkpoints_match_counter(self, traced_run):
        _, tracer, result = traced_run
        assert tracer.kind_totals[EventKind.AUTH_MAC] == \
            result.stats["bus.tx.Auth00"]

    def test_pad_events_match_counters(self, traced_run):
        _, tracer, result = traced_run
        assert tracer.kind_totals[EventKind.PAD_HIT] == \
            result.stats["memprotect.pad_cache_hits"]
        assert tracer.kind_totals[EventKind.PAD_MISS] == \
            result.stats["memprotect.pad_cache_misses"]

    def test_hash_events_match_counters(self, traced_run):
        _, tracer, result = traced_run
        climbs = (result.stats["memprotect.root_verifications"]
                  + result.stats["memprotect.node_cache_hits"]
                  + result.stats["memprotect.hash_fetches"])
        assert tracer.kind_totals[EventKind.HASH_VERIFY] == climbs
        updates = (result.stats["memprotect.root_updates"]
                   + result.stats["memprotect.hash_updates"]
                   + result.stats.get("memprotect.clipped_updates", 0))
        assert tracer.kind_totals[EventKind.HASH_UPDATE] == updates

    def test_run_span_per_cpu(self, traced_run):
        _, tracer, result = traced_run
        spans = [event for event in tracer.log
                 if event.kind == EventKind.RUN_SPAN]
        assert len(spans) == result.num_cpus
        assert [span.dur for span in spans] == \
            list(result.per_cpu_cycles)
        assert tracer.workload_name == result.workload

    def test_snoop_stack_fully_consumed(self, traced_run):
        _, tracer, _ = traced_run
        assert tracer._snoops == []

    def test_miss_spans_have_positive_latency(self, traced_run):
        _, tracer, _ = traced_run
        for event in tracer.log:
            if event.kind in (EventKind.MISS, EventKind.UPGRADE):
                assert event.dur > 0


class TestHistograms:
    def test_all_five_installed(self, traced_run):
        system, _, _ = traced_run
        for name in (MISS_LATENCY, UPGRADE_LATENCY, MASK_WAIT,
                     PAD_REUSE_DISTANCE, AUTH_INTERVAL_GAP):
            assert name in system.stats.histograms()

    def test_miss_latency_counts_every_miss(self, traced_run):
        system, tracer, _ = traced_run
        histogram = system.stats.histogram(MISS_LATENCY)
        assert histogram.summary()["count"] == \
            tracer.kind_totals[EventKind.MISS]

    def test_mask_wait_matches_stall_counter(self, traced_run):
        system, _, result = traced_run
        summary = system.stats.histogram(MASK_WAIT).summary()
        assert summary["count"] == result.stats["senss.mask_stalls"]
        assert summary["sum"] == \
            result.stats["senss.mask_wait_cycles"]

    def test_auth_gap_counts_checkpoints_after_first(self, traced_run):
        system, tracer, _ = traced_run
        summary = system.stats.histogram(AUTH_INTERVAL_GAP).summary()
        # One group: every checkpoint but the first has a gap.
        assert summary["count"] == \
            tracer.kind_totals[EventKind.AUTH_MAC] - 1

    def test_histograms_stay_out_of_stats_dict(self, traced_run):
        _, _, result = traced_run
        assert not any(name.startswith("obs.") for name in result.stats)

    def test_summary_shape(self, traced_run):
        _, tracer, _ = traced_run
        summary = tracer.summary()
        assert summary["workload"] == "fft"
        assert summary["events_dropped"] == 0
        assert summary["events_recorded"] == summary["events_retained"]
        assert summary["by_kind"]["mask_stall"] > 0
        assert MISS_LATENCY in summary["histograms"]


class TestZeroInterference:
    """Attaching a tracer must not change simulated results."""

    def test_traced_run_is_bit_identical(self, traced_run):
        _, _, traced = traced_run
        plain = build_system(rich_config()).run(rich_workload())
        assert traced.cycles == plain.cycles
        assert list(traced.per_cpu_cycles) == list(plain.per_cpu_cycles)
        assert traced.stats == plain.stats

    def test_traced_reference_engine_matches(self, traced_run):
        _, _, traced = traced_run
        system = build_system(rich_config())
        Tracer().attach(system)
        reference = system.run_reference(rich_workload())
        assert reference.cycles == traced.cycles
        assert reference.stats == traced.stats

    def test_unobserved_system_keeps_scratch_route(self):
        system = build_system(rich_config())
        assert system.bus._observers == []
        first = system._next_transaction(
            system._scratch_tx.type, 0, 0, 0, False)
        assert first is system._scratch_tx

    def test_observers_read_the_scratch_transaction(self):
        """A traced machine keeps the one slow-path route: observers
        are handed the scratch object, and the tracer's BUS_TX events
        equal those of an observer that copies every field."""
        system = build_system(rich_config())
        tracer = Tracer(capacity=500_000).attach(system)
        scratch = system._scratch_tx
        handed_scratch = []
        copies = []

        def copy_fields(tx):
            if tx.type is not TransactionType.AUTH_MAC:
                # MAC broadcasts are the SENSS layer's own objects.
                handed_scratch.append(tx is scratch)
            copies.append(BusTransaction(
                tx.type, tx.address, tx.source_pid, tx.group_id,
                tx.issue_cycle, tx.grant_cycle, tx.complete_cycle,
                tx.supplied_by_cache, tx.payload, tx.sequence))

        system.bus.add_observer(copy_fields)
        system.run(rich_workload())
        assert handed_scratch and all(handed_scratch)
        traced = [tuple(event) for event in tracer.log
                  if event.kind == EventKind.BUS_TX]
        copied = [(EventKind.BUS_TX, tx.grant_cycle,
                   max(0, tx.complete_cycle - tx.grant_cycle),
                   tx.source_pid, tx.address, TX_TYPE_INDEX[tx.type],
                   1 if tx.is_cache_to_cache else 0) for tx in copies]
        assert traced == copied
        assert [tx.sequence for tx in copies] == list(range(len(copies)))


class TestAttachDetach:
    def test_attach_hooks_every_layer(self):
        system = build_system(rich_config())
        tracer = Tracer().attach(system)
        assert system._obs is tracer
        assert system.observer is tracer
        assert tracer._on_bus_tx in system.bus._observers
        assert system.protocol.observer is tracer
        assert system.bus.security_layer.observer is tracer
        assert system.memprotect.observer is tracer

    def test_detach_restores_everything(self):
        system = build_system(rich_config())
        tracer = Tracer().attach(system)
        tracer.detach()
        assert system._obs is None
        assert system.bus._observers == []
        assert system.protocol.observer is None
        assert system.bus.security_layer.observer is None
        assert system.memprotect.observer is None
        # Scratch-transaction route is back.
        assert system._next_transaction(
            system._scratch_tx.type, 0, 0, 0, False) \
            is system._scratch_tx

    def test_detach_is_idempotent(self):
        system = build_system(rich_config())
        tracer = Tracer().attach(system)
        tracer.detach()
        tracer.detach()
        assert system.bus._observers == []

    def test_detach_does_not_clobber_other_tracer(self):
        system = build_system(rich_config())
        first = Tracer().attach(system)
        second = Tracer().attach(system)
        first.detach()
        assert system._obs is second
        assert system.protocol.observer is second
        assert second._on_bus_tx in system.bus._observers

    def test_attach_baseline_system_without_layers(self):
        """A tracer on a security-free baseline still traces bus,
        coherence and run spans."""
        config = e6000_config(num_processors=2,
                              senss_enabled=False)
        system = build_system(config.with_l2_size(8 * KB))
        tracer = Tracer().attach(system)
        system.run(generate("fft", 2, scale=0.05, seed=1))
        assert tracer.kind_totals[EventKind.BUS_TX] > 0
        assert tracer.kind_totals[EventKind.MISS] > 0
        assert EventKind.PAD_MISS not in tracer.kind_totals
        assert EventKind.MASK_STALL not in tracer.kind_totals


class TestModes:
    def test_capacity_zero_keeps_metrics_only(self):
        """``capacity=0`` is the metrics-only mode of ``repro report``:
        no events, no totals, no bus observer, the histograms still
        filled."""
        system = build_system(rich_config())
        tracer = Tracer(capacity=0).attach(system)
        system.run(rich_workload())
        assert len(tracer.log) == 0
        assert tracer.log.total_recorded == tracer.log.dropped == 0
        assert tracer.kind_totals == {}
        # Bus events feed no histogram: the bus is not hooked at all.
        assert not system.bus._observers
        assert system.stats.histogram(
            MISS_LATENCY).summary()["count"] > 0
        assert tracer.histogram_summaries()[MISS_LATENCY]["count"] > 0

    def test_metrics_disabled_skips_histograms(self):
        system = build_system(rich_config())
        tracer = Tracer(metrics=False).attach(system)
        system.run(rich_workload())
        assert system.stats.histogram_summaries() == {}
        assert tracer.kind_totals[EventKind.MISS] > 0

    def test_small_ring_wraps_but_totals_are_complete(self):
        system = build_system(rich_config())
        tracer = Tracer(capacity=256).attach(system)
        system.run(rich_workload())
        assert tracer.log.dropped > 0
        assert len(tracer.log) == 256
        total = sum(tracer.kind_totals.values())
        assert tracer.log.total_recorded == total

    def test_uninstrumented_protocol_pops_sentinel(self):
        """on_miss without a paired snoop reports invalidated = -1
        (unknown) rather than desyncing."""
        tracer = Tracer()
        tracer.on_miss(0, 0x40, 100, 300, False)
        events = list(tracer.log)
        assert events[0].a1 == -1
