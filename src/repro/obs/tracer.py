"""The structured event tracer.

:class:`Tracer` attaches to an assembled :class:`~repro.smp.system.
SmpSystem` and records a timeline of what the run did into an
:class:`~repro.obs.ring.EventLog` (each hook makes one ``record``
call, bound at construction), plus latency distributions into
:class:`~repro.sim.stats.Histogram` metrics on the system's registry:

- the **bus** reports every granted transaction (via the existing
  ``SharedBus.add_observer`` hook; like every bus observer the tracer
  copies the fields it records during the call, so the slow path
  keeps handing it the one scratch transaction it reuses);
- the **coherence protocol** reports each snoop outcome, which the
  tracer pairs LIFO with the miss/upgrade span that consumed it
  (memory-protection hash fetches nest misses inside misses, so a
  stack, not a queue);
- the **SMP system** reports miss and upgrade completion spans;
- the **SENSS layer** reports mask-readiness stalls and
  authentication checkpoints;
- the **memory-protection layer** reports pad-cache hits/misses and
  hash-tree verifications/updates.

Every hook site guards with a single ``is not None`` test and all
hooks live on the miss/upgrade slow path, so a system with no tracer
attached pays one pointer comparison per miss — the fused hit loop in
:mod:`repro.smp.fastpath` is untouched. Attaching a tracer never
changes simulated timing or statistics: results stay bit-identical to
an unobserved run (pinned by tests/obs/test_tracer.py).

**Category filtering** (``categories=...``, CLI
``--trace-categories``): a tracer can record just a subset of the
event categories the exporter names (:data:`TRACE_CATEGORIES` —
``bus``/``mem``/``senss``/``memprotect``/``run``/``faults``). The
filter is applied at *attach time*, not per event: layers whose
category is off are simply never hooked, so a filtered run pays only
for the events it records. In particular, leaving ``bus`` off skips
the per-transaction bus event, and leaving ``mem`` off skips the
per-miss span recording and its histograms. A metrics-only tracer
(``capacity=0``) hooks no bus either: bus events feed no histogram.
Filtering never changes simulated results either.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..bus.transaction import TransactionType
from ..errors import ConfigError
from .ring import EventKind, EventLog

#: recordable event categories, matching the exporter's ``cat`` labels
#: (repro.obs.export): bus transactions; miss/upgrade memory spans;
#: SENSS security events; memory-protection events; per-CPU run spans;
#: fault injection/detection.
TRACE_CATEGORIES = ("bus", "mem", "senss", "memprotect", "run",
                    "faults")


def parse_categories(spec: Optional[str]) -> Optional[frozenset]:
    """Parse a ``bus,senss``-style CLI list; ``None``/"all" = all."""
    if spec is None:
        return None
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names or "all" in names:
        return None
    return frozenset(names)

#: stable index per transaction type, recorded in the a1 payload word
TX_TYPE_INDEX = {tx_type: index
                 for index, tx_type in enumerate(TransactionType)}
TX_TYPE_BY_INDEX = list(TransactionType)

#: snoop operation codes (protocol observer a-word)
SNOOP_READ = 0
SNOOP_READ_EXCLUSIVE = 1
SNOOP_UPGRADE = 2

#: hash-climb outcome codes
HASH_ROOT = 0
HASH_L2_HIT = 1
HASH_FETCH = 2
#: hash-update outcome codes (HASH_ROOT shared)
HASH_WRITE = 1
HASH_CLIPPED = 2

#: histogram metric names installed on attach
MISS_LATENCY = "obs.miss_latency"
UPGRADE_LATENCY = "obs.upgrade_latency"
MASK_WAIT = "obs.mask_wait_cycles"
PAD_REUSE_DISTANCE = "obs.pad_reuse_distance"
AUTH_INTERVAL_GAP = "obs.auth_interval_gap"


class Tracer:
    """Event tracer over one :class:`~repro.obs.ring.EventLog` plus
    histogram metrics probe.

    ``capacity`` sizes the log: the newest N events (default), every
    event (``None`` — what the recorder in repro.obs.recording uses)
    or none (``0`` — metrics only, what ``python -m repro report``
    uses); ``metrics=False`` skips the histograms (pure timeline);
    ``categories`` restricts recording to a subset of
    :data:`TRACE_CATEGORIES` (``None`` = record all) by not hooking
    the filtered-out layers at attach time.
    """

    def __init__(self, capacity: Optional[int] = 65536,
                 metrics: bool = True,
                 categories: Optional[Iterable[str]] = None):
        self.log = EventLog(capacity)
        # the one call each hook makes per event
        self._emit = self.log.record
        self.metrics_enabled = metrics
        if categories is None:
            self.categories = frozenset(TRACE_CATEGORIES)
        else:
            self.categories = frozenset(categories)
            unknown = self.categories - set(TRACE_CATEGORIES)
            if unknown:
                raise ConfigError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"choose from {TRACE_CATEGORIES}")
        self.workload_name: Optional[str] = None
        self.final_clocks: List[int] = []
        self._system = None
        # LIFO of (op, invalidated, supplier+1, dirty) snoop outcomes
        # awaiting their miss/upgrade completion span.
        self._snoops: List[Tuple[int, int, int, int]] = []
        self._last_auth: Dict[int, int] = {}       # group -> last cycle
        self._pad_clock: Dict[int, int] = {}       # cpu -> access count
        self._pad_last: Dict[Tuple[int, int], int] = {}  # (cpu, line)
        self._h_miss = self._h_upgrade = self._h_mask = None
        self._h_reuse = self._h_auth_gap = None

    @property
    def kind_totals(self) -> Dict[int, int]:
        """``{kind: count}`` of every event recorded, dropped ones
        included."""
        return self.log.counts_by_kind()

    # -- attachment ----------------------------------------------------

    def attach(self, system) -> "Tracer":
        """Hook the layers whose categories are enabled; returns self.

        Filtered-out categories are never hooked: no bus observer, no
        protocol/senss/memprotect observer, and the per-miss callbacks
        are replaced with no-ops — a filtered tracer costs only what
        it records. A log that keeps nothing (``capacity=0``) gets no
        bus observer either.
        """
        self._system = system
        system._obs = self
        enabled = self.categories
        if "bus" in enabled and self.log.capacity != 0:
            system.bus.add_observer(self._on_bus_tx)
        if "mem" in enabled:
            if system.protocol is not None:
                system.protocol.observer = self
        else:
            # system._obs stays set (run-end callback), so silence the
            # per-miss notifications instead of recording them.
            self.on_miss = self._noop_miss
            self.on_upgrade = self._noop_upgrade
        if "senss" in enabled:
            layer = system.bus.security_layer
            if layer is not None:
                layer.observer = self
        if "memprotect" in enabled and system.memprotect is not None:
            system.memprotect.observer = self
        if "faults" not in enabled:
            self.on_fault_inject = self._noop_fault_inject
            self.on_fault_detect = self._noop_fault_detect
        if self.metrics_enabled:
            stats = system.stats
            if "mem" in enabled:
                self._h_miss = stats.histogram(MISS_LATENCY)
                self._h_upgrade = stats.histogram(UPGRADE_LATENCY)
            if "senss" in enabled:
                self._h_mask = stats.histogram(MASK_WAIT)
                self._h_auth_gap = stats.histogram(AUTH_INTERVAL_GAP)
            if "memprotect" in enabled:
                self._h_reuse = stats.histogram(PAD_REUSE_DISTANCE)
        return self

    # attach-time replacements for filtered-out per-event callbacks
    @staticmethod
    def _noop_miss(cpu, line_address, request, finish, is_write):
        return None

    @staticmethod
    def _noop_upgrade(cpu, line_address, request, finish):
        return None

    @staticmethod
    def _noop_fault_inject(record, cycle):
        return None

    @staticmethod
    def _noop_fault_detect(record):
        return None

    def detach(self) -> None:
        """Unhook everything this tracer installed; hooks another
        tracer installed stay."""
        system = self._system
        if system is None:
            return
        system.bus.remove_observer(self._on_bus_tx)
        if system.protocol is not None and \
                system.protocol.observer is self:
            system.protocol.observer = None
        layer = system.bus.security_layer
        if layer is not None and layer.observer is self:
            layer.observer = None
        if system.memprotect is not None and \
                system.memprotect.observer is self:
            system.memprotect.observer = None
        if system._obs is self:
            system._obs = None
        self._system = None

    # -- bus -----------------------------------------------------------

    def _on_bus_tx(self, transaction) -> None:
        grant = transaction.grant_cycle
        self._emit(EventKind.BUS_TX, grant,
                   max(0, transaction.complete_cycle - grant),
                   transaction.source_pid, transaction.address,
                   TX_TYPE_INDEX[transaction.type],
                   1 if transaction.is_cache_to_cache else 0)

    # -- coherence protocol --------------------------------------------

    def on_snoop(self, op: int, requester: int, line_address: int,
                 outcome) -> None:
        supplier = outcome.supplier_cpu
        self._snoops.append((op, len(outcome.invalidated_cpus),
                             0 if supplier is None else supplier + 1,
                             1 if outcome.had_modified_copy else 0))

    def _pop_snoop(self) -> Tuple[int, int, int, int]:
        if self._snoops:
            return self._snoops.pop()
        return (-1, -1, 0, 0)  # protocol not instrumented

    # -- SMP system ----------------------------------------------------

    def on_miss(self, cpu: int, line_address: int, request: int,
                finish: int, is_write: bool) -> None:
        _, invalidated, supplier_word, dirty = self._pop_snoop()
        latency = finish - request
        if self._h_miss is not None:
            self._h_miss.record(latency)
        packed = supplier_word | (dirty << 8) | \
            ((1 if is_write else 0) << 9)
        self._emit(EventKind.MISS, request, latency, cpu, line_address,
                   invalidated, packed)

    def on_upgrade(self, cpu: int, line_address: int, request: int,
                   finish: int) -> None:
        _, invalidated, _, _ = self._pop_snoop()
        latency = finish - request
        if self._h_upgrade is not None:
            self._h_upgrade.record(latency)
        self._emit(EventKind.UPGRADE, request, latency, cpu, line_address,
                   invalidated)

    def on_run_end(self, workload_name: str, clocks) -> None:
        self.workload_name = workload_name
        self.final_clocks = list(clocks)
        if "run" in self.categories:
            for cpu, clock in enumerate(clocks):
                self._emit(EventKind.RUN_SPAN, 0, clock, cpu)

    # -- SENSS layer ---------------------------------------------------

    def on_mask_stall(self, transaction, grant_cycle: int,
                      wait: int) -> None:
        if self._h_mask is not None:
            self._h_mask.record(wait)
        self._emit(EventKind.MASK_STALL, grant_cycle, wait,
                   transaction.source_pid, transaction.group_id, wait)

    def on_auth_mac(self, group_id: int, initiator: int,
                    cycle: int) -> None:
        previous = self._last_auth.get(group_id)
        gap = -1 if previous is None else cycle - previous
        self._last_auth[group_id] = cycle
        if gap >= 0 and self._h_auth_gap is not None:
            self._h_auth_gap.record(gap)
        self._emit(EventKind.AUTH_MAC, cycle, 0, initiator, group_id, gap)

    # -- memory protection ---------------------------------------------

    def on_pad_cache(self, cpu: int, line_address: int, cycle: int,
                     hit: bool) -> None:
        sequence = self._pad_clock.get(cpu, 0)
        self._pad_clock[cpu] = sequence + 1
        key = (cpu, line_address)
        previous = self._pad_last.get(key)
        self._pad_last[key] = sequence
        if hit:
            distance = -1 if previous is None else sequence - previous
            if distance >= 0 and self._h_reuse is not None:
                self._h_reuse.record(distance)
            self._emit(EventKind.PAD_HIT, cycle, 0, cpu, line_address,
                       distance)
        else:
            self._emit(EventKind.PAD_MISS, cycle, 0, cpu, line_address)

    def on_hash_verify(self, cpu: int, address: int, cycle: int,
                       outcome: int) -> None:
        self._emit(EventKind.HASH_VERIFY, cycle, 0, cpu, address, outcome)

    def on_hash_update(self, cpu: int, address: int, cycle: int,
                       outcome: int) -> None:
        self._emit(EventKind.HASH_UPDATE, cycle, 0, cpu, address, outcome)

    # -- fault injection (repro.faults) --------------------------------

    def on_fault_inject(self, record, cycle: int) -> None:
        from ..faults.injector import FAULT_KIND_INDEX
        self._emit(EventKind.FAULT_INJECT, max(0, cycle), 0,
                   max(0, record.cpu), FAULT_KIND_INDEX[record.kind],
                   record.group_id)

    def on_fault_detect(self, record) -> None:
        from ..faults.injector import FAULT_KIND_INDEX, MECHANISM_INDEX
        self._emit(EventKind.FAULT_DETECT, max(0, record.detect_cycle), 0,
                   max(0, record.cpu), FAULT_KIND_INDEX[record.kind],
                   MECHANISM_INDEX[record.mechanism],
                   max(0, record.latency_cycles))

    # -- summaries -----------------------------------------------------

    def histogram_summaries(self) -> Dict[str, Dict[str, object]]:
        if self._system is None or not self.metrics_enabled:
            return {}
        return {name: summary for name, summary
                in self._system.stats.histogram_summaries().items()
                if name.startswith("obs.")}

    def summary(self) -> Dict[str, object]:
        """Compact run overview: per-kind totals, drops, histograms."""
        names = {EventKind.BUS_TX: "bus_tx", EventKind.MISS: "miss",
                 EventKind.UPGRADE: "upgrade",
                 EventKind.MASK_STALL: "mask_stall",
                 EventKind.AUTH_MAC: "auth_checkpoint",
                 EventKind.PAD_HIT: "pad_cache_hit",
                 EventKind.PAD_MISS: "pad_cache_miss",
                 EventKind.HASH_VERIFY: "hash_verify",
                 EventKind.HASH_UPDATE: "hash_update",
                 EventKind.RUN_SPAN: "run_span",
                 EventKind.FAULT_INJECT: "fault_inject",
                 EventKind.FAULT_DETECT: "fault_detect"}
        return {
            "workload": self.workload_name,
            "events_recorded": self.log.total_recorded,
            "events_retained": len(self.log),
            "events_dropped": self.log.dropped,
            "by_kind": {names[kind]: count for kind, count
                        in sorted(self.kind_totals.items())},
            "cycles": max(self.final_clocks) if self.final_clocks else 0,
            "histograms": self.histogram_summaries(),
        }
