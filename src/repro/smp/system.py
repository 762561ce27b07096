"""The trace-driven SMP system simulator.

``SmpSystem`` assembles the substrates — per-CPU cache hierarchies, the
MESI snooping protocol, the shared bus, main memory — and executes a
:class:`~repro.smp.trace.Workload`, producing a
:class:`~repro.smp.metrics.SimulationResult`.

Timing model (see DESIGN.md §6): per-CPU clocks advance through their
traces; the atomic bus serializes transactions in request order.
Non-memory instructions cost one cycle each; hits cost the Figure-5
cache latencies; misses cost the bus round trip (120 cycles
cache-to-cache, 180 to memory) plus contention. Dirty evictions post a
write-back that occupies the bus without stalling the evicting CPU.

Security layers plug in without the baseline knowing about them:

- A SENSS bus layer attaches to ``bus.security_layer`` and charges the
  per-message crypto overhead, mask-readiness stalls, and MAC
  broadcasts (sections 4-5).
- A memory-protection layer attaches via ``attach_memprotect`` and is
  consulted on memory fetches and write-backs (section 6).

The miss/upgrade/write-back machinery here is the *slow path* shared
by both engines (``run``'s fast path and ``run_reference``): per-CPU
state (hierarchy, group id) is pre-bound, coherence statistics
accumulate in plain ints drained on read, and every bus transaction
it issues reuses one scratch object (DESIGN.md §6c): bus observers
read a transaction during the call and never keep it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..bus.bus import SharedBus
from ..bus.transaction import BusTransaction, TransactionType
from ..cache.hierarchy import AccessKind, CacheHierarchy
from ..coherence.msi import make_protocol
from ..config import SystemConfig
from ..errors import SimulationError
from ..memory.dram import MainMemory
from ..sim.stats import StatsRegistry
from .fastpath import run_fast
from .metrics import SimulationResult
from .trace import Workload

_BUS_READ = TransactionType.BUS_READ
_BUS_READ_EXCLUSIVE = TransactionType.BUS_READ_EXCLUSIVE
_BUS_UPGRADE = TransactionType.BUS_UPGRADE
_WRITEBACK = TransactionType.WRITEBACK


class SmpSystem:
    """A complete simulated SMP machine."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.stats = StatsRegistry()
        self.bus = SharedBus(config.bus, self.stats)
        self.memory = MainMemory(config.l2.line_bytes)
        self.hierarchies: List[CacheHierarchy] = [
            CacheHierarchy(cpu_id, config.l1, config.l2, self.stats)
            for cpu_id in range(config.num_processors)
        ]
        self.protocol = make_protocol(config.coherence_protocol,
                                      self.hierarchies)
        self.memprotect = None  # optional MemProtectLayer
        # Per-CPU group IDs (section 4.1 grouping): default one group.
        self._cpu_groups = [0] * config.num_processors
        # Pre-bound slow-path state: (hierarchy, group_id) per CPU,
        # rebuilt by set_cpu_groups.
        self._slow_ctx: List[Tuple[CacheHierarchy, int]] = [
            (hierarchy, 0) for hierarchy in self.hierarchies]
        self._line_bytes = config.l2.line_bytes
        # Scratch transaction reused by every slow-path bus issue
        # (observers copy what they keep: SharedBus.add_observer).
        self._scratch_tx = BusTransaction(_BUS_READ, 0, 0)
        # Optional observability probe (repro.obs.Tracer): notified of
        # miss/upgrade completion spans with their snoop outcome. One
        # is-None test per slow-path event when detached; never
        # consulted on the hit fast path.
        self._obs = None
        # Deferred coherence counters; _events tracks how many times
        # the reference semantics would have touched the invalidation
        # counter (it is bumped by zero on snoops that invalidate
        # nobody, which still materializes the counter).
        self._pending_invalidations = 0
        self._pending_invalidation_events = 0
        self._pending_dirty_interventions = 0
        self._pending_writebacks = 0
        self.stats.register_flusher(self._flush_stats)

    def _flush_stats(self) -> None:
        add = self.stats.add
        if self._pending_invalidation_events:
            add("coherence.invalidations", self._pending_invalidations)
            self._pending_invalidations = 0
            self._pending_invalidation_events = 0
        if self._pending_dirty_interventions:
            add("coherence.dirty_interventions",
                self._pending_dirty_interventions)
            self._pending_dirty_interventions = 0
        if self._pending_writebacks:
            add("coherence.writebacks", self._pending_writebacks)
            self._pending_writebacks = 0

    # -- attachment points ------------------------------------------------

    def attach_memprotect(self, layer) -> None:
        """Attach a cache-to-memory protection layer (repro.memprotect)."""
        self.memprotect = layer

    @property
    def observer(self):
        """The attached observability probe, if any (repro.obs)."""
        return self._obs

    def set_cpu_groups(self, group_ids) -> None:
        """Assign each CPU to a SENSS group (multiprogramming).

        ``group_ids[cpu]`` tags every bus transaction that CPU issues,
        so the security layer maintains per-group masks and counters
        (section 4.2 "Maintaining the mask").
        """
        if len(group_ids) != self.config.num_processors:
            raise SimulationError(
                "need one group id per processor")
        self._cpu_groups = list(group_ids)
        self._slow_ctx = [(hierarchy, group_id)
                          for hierarchy, group_id
                          in zip(self.hierarchies, self._cpu_groups)]

    def release(self) -> None:
        """Drop a finished machine's internal references.

        Registered stats flushers are bound methods of the machine's
        own components, and attached layers (SENSS, memory
        protection, fault injectors, recorders) point back at the bus
        and the system, so a dropped machine is cyclic garbage that
        outlives its last use until a full collection. After this it
        is freed as soon as the caller lets go of it. The machine
        (its stats included) is unusable afterwards.
        """
        for part in (self.stats, self.bus, self):
            vars(part).clear()

    # -- execution -----------------------------------------------------------

    def run(self, workload: Workload) -> SimulationResult:
        """Execute the workload to completion and return metrics.

        Runs the merged fast path (:mod:`repro.smp.fastpath`):
        bit-identical to :meth:`run_reference` but several times
        faster.
        """
        return run_fast(self, workload)

    def run_reference(self, workload: Workload) -> SimulationResult:
        """The layered reference engine (the pre-fast-path semantics).

        Kept as the executable specification: equivalence tests assert
        ``run`` produces bit-identical results to this implementation.
        """
        if workload.num_cpus > self.config.num_processors:
            raise SimulationError(
                f"workload has {workload.num_cpus} traces but the machine "
                f"has {self.config.num_processors} processors")
        num_cpus = workload.num_cpus
        clocks = [0] * num_cpus
        cursors = [0] * num_cpus
        traces = [workload.accesses_for(cpu) for cpu in range(num_cpus)]
        lengths = [len(trace) for trace in traces]
        active = [length > 0 for length in lengths]

        while True:
            # Next CPU = earliest pending *request* time (clock plus the
            # compute gap preceding its next access) — request order is
            # what the bus arbiter sees.
            cpu = -1
            best = None
            for candidate in range(num_cpus):
                if not active[candidate]:
                    continue
                pending = (clocks[candidate]
                           + traces[candidate][cursors[candidate]].gap)
                if best is None or pending < best:
                    best = pending
                    cpu = candidate
            if cpu < 0:
                break
            access = traces[cpu][cursors[cpu]]
            cursors[cpu] += 1
            if cursors[cpu] >= lengths[cpu]:
                active[cpu] = False
            clocks[cpu] = self._execute(cpu, clocks[cpu] + access.gap,
                                        access.is_write, access.address)

        if self._obs is not None:
            self._obs.on_run_end(workload.name, clocks)
        return SimulationResult(
            workload=workload.name,
            num_cpus=num_cpus,
            cycles=max(clocks) if clocks else 0,
            per_cpu_cycles=clocks,
            stats=self.stats.as_dict(),
        )

    # -- single-access engine ---------------------------------------------

    def _execute(self, cpu: int, clock: int, is_write: bool,
                 address: int) -> int:
        """Run one memory reference to completion; returns the new clock."""
        hierarchy = self.hierarchies[cpu]
        result = hierarchy.access(is_write, address)

        if result.kind in (AccessKind.L1_HIT, AccessKind.L2_HIT):
            return clock + result.latency

        if result.kind is AccessKind.L2_HIT_NEEDS_UPGRADE:
            return self._execute_upgrade(cpu, clock, result.line_address)

        return self._execute_miss(cpu, clock, is_write,
                                  result.line_address)

    def _next_transaction(self, tx_type: TransactionType, address: int,
                          cpu: int, group_id: int,
                          supplied_by_cache: bool) -> BusTransaction:
        """The scratch transaction, refilled for one slow-path bus
        issue."""
        transaction = self._scratch_tx
        transaction.type = tx_type
        transaction.address = address
        transaction.source_pid = cpu
        transaction.group_id = group_id
        transaction.supplied_by_cache = supplied_by_cache
        transaction.payload = None
        return transaction

    def _execute_upgrade(self, cpu: int, clock: int,
                         line_address: int) -> int:
        """S->M upgrade: invalidate remote sharers over the bus."""
        hierarchy, group_id = self._slow_ctx[cpu]
        outcome = self.protocol.bus_upgrade(cpu, line_address)
        transaction = self._next_transaction(_BUS_UPGRADE, line_address,
                                             cpu, group_id, False)
        transaction = self.bus.issue(transaction, clock, data_bytes=0)
        hierarchy.upgrade(line_address)
        self._pending_invalidations += len(outcome.invalidated_cpus)
        self._pending_invalidation_events += 1
        finish = transaction.complete_cycle
        if self._obs is not None:
            self._obs.on_upgrade(cpu, line_address, clock, finish, outcome)
        return finish

    def _execute_miss(self, cpu: int, clock: int, is_write: bool,
                      line_address: int) -> int:
        """Miss: consult the protocol, then transfer the line."""
        hierarchy, group_id = self._slow_ctx[cpu]
        if is_write:
            outcome = self.protocol.bus_read_exclusive(cpu, line_address)
            tx_type = _BUS_READ_EXCLUSIVE
        else:
            outcome = self.protocol.bus_read(cpu, line_address)
            tx_type = _BUS_READ
        supplied_by_cache = outcome.supplier_cpu is not None

        transaction = self._next_transaction(tx_type, line_address, cpu,
                                             group_id, supplied_by_cache)
        transaction = self.bus.issue(transaction, clock,
                                     data_bytes=self._line_bytes)
        finish = transaction.complete_cycle
        self._pending_invalidations += len(outcome.invalidated_cpus)
        self._pending_invalidation_events += 1

        if outcome.had_modified_copy:
            # Illinois MESI: the dirty supplier flushes; memory is
            # updated as part of the same transaction (no extra tx).
            self._pending_dirty_interventions += 1

        if not supplied_by_cache and self.memprotect is not None:
            finish += self.memprotect.on_memory_fetch(
                cpu, line_address, finish)

        victim = hierarchy.fill(line_address, outcome.fill_state)
        if victim is not None and victim[1].is_dirty:
            self._post_writeback(cpu, victim[0], finish)

        if self._obs is not None:
            # Notified last so nested fetches (hash-tree climbs, hash
            # write-backs) report before their enclosing miss: the
            # event order traces and recordings pin.
            self._obs.on_miss(cpu, line_address, clock, finish,
                              is_write, outcome)
        return finish

    def _post_writeback(self, cpu: int, line_address: int,
                        clock: int) -> None:
        """Posted write-back: occupies the bus, does not stall the CPU."""
        group_id = self._slow_ctx[cpu][1]
        transaction = self._next_transaction(_WRITEBACK, line_address,
                                             cpu, group_id, False)
        self.bus.issue(transaction, clock,
                       data_bytes=self._line_bytes)
        self._pending_writebacks += 1
        if self.memprotect is not None:
            self.memprotect.on_writeback(cpu, line_address, clock)
