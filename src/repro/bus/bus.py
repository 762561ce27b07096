"""The shared snooping bus: arbitration, occupancy, traffic accounting.

The model is an atomic split of *occupancy* and *latency*:

- **Occupancy** is how long the bus is held by a transaction (an
  address cycle plus data cycles at the 3.2 GB/s, 32 B-per-bus-cycle
  rate of Figure 5). Occupancy serializes transactions and produces
  contention.
- **Latency** is when the *requester* gets its answer: 120 cycles for
  an uncontended cache-to-cache transfer, 180 cycles for memory
  (Figure 5), counted from grant.

SENSS security hooks (per-message +3 cycles, mask-readiness stalls,
MAC broadcasts) are layered on by :class:`repro.core.senss.SenssBusLayer`
via the ``security_layer`` attachment so the baseline bus stays
security-free.

Traffic accounting is deferred (DESIGN.md §6c): the issue path bumps
plain integers and a flusher registered with the
:class:`~repro.sim.stats.StatsRegistry` materializes the named
counters on read, so per-transaction cost stays off the string-keyed
stats machinery.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import BusConfig
from ..errors import BusError
from ..sim.stats import StatsRegistry
from .transaction import BusTransaction, TransactionType


class SharedBus:
    """Atomic snooping bus shared by all processors and the memory."""

    def __init__(self, config: BusConfig,
                 stats: Optional[StatsRegistry] = None):
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        # Hot config fields bound once: the issue path runs per bus
        # transaction and should not chase the config dataclass.
        self._cycle = config.cycle_cpu_cycles
        self._line_bytes = config.line_bytes
        self._c2c_latency = config.cache_to_cache_latency
        self._mem_latency = config.cache_to_memory_latency
        self._split = config.split_transaction
        self._free_at = 0
        self._data_free_at = 0  # split-transaction mode only
        self._sequence = 0
        self._observers: List[Callable[[BusTransaction], None]] = []
        self.security_layer = None  # set by SenssBusLayer.attach()
        # Optional fault-injection probe (repro.faults.FaultInjector):
        # consulted on every granted transaction, after observers but
        # before the security layer's after_transfer so the injector
        # sees the data message before any MAC broadcast it triggers.
        self.fault_hook = None
        # Deferred traffic counters, drained by _flush_stats on any
        # registry read. Only transaction types actually issued get a
        # _pending_by_type entry (keyed by the precomputed counter
        # name), preserving lazy counter creation.
        self._pending_transactions = 0
        self._pending_c2c = 0
        self._pending_with_memory = 0
        self._pending_by_type: Dict[str, int] = {}
        self.stats.register_flusher(self._flush_stats)

    # -- observation -----------------------------------------------------

    def add_observer(self, observer: Callable[[BusTransaction], None]) -> None:
        """Observers see every granted transaction (tracers, the
        functional bridge, bus-order recorders), after its timing is
        resolved.

        An observer reads the transaction during the call and copies
        any field it keeps: the object is the issuer's, and the SMP
        slow path refills one scratch transaction for every issue.
        """
        self._observers.append(observer)

    def remove_observer(self,
                        observer: Callable[[BusTransaction], None]) -> None:
        """Detach a previously added observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # -- timing helpers ----------------------------------------------------

    @property
    def free_at(self) -> int:
        return self._free_at

    def occupancy_cycles(self, transaction_type: TransactionType,
                         data_bytes: int) -> int:
        """Bus hold time in CPU cycles: 1 address cycle + data cycles."""
        cycles = self.config.cycle_cpu_cycles  # address/command cycle
        if transaction_type.carries_data and data_bytes > 0:
            data_cycles = -(-data_bytes // self.config.line_bytes)
            cycles += data_cycles * self.config.cycle_cpu_cycles
        return cycles

    def base_latency(self, transaction: BusTransaction) -> int:
        """Uncontended requester-visible latency from grant (Figure 5)."""
        if transaction.type.is_short_message:
            # Address-only coherence/pad messages and the 16-byte MAC
            # digest broadcast: two bus cycles.
            return 2 * self.config.cycle_cpu_cycles
        if transaction.supplied_by_cache:
            return self.config.cache_to_cache_latency
        return self.config.cache_to_memory_latency

    # -- the one entry point ------------------------------------------------

    def issue(self, transaction: BusTransaction, request_cycle: int,
              data_bytes: int) -> BusTransaction:
        """Arbitrate, occupy, snoop and complete one transaction.

        Returns the transaction with ``grant_cycle`` / ``complete_cycle``
        filled in. The caller has already resolved who supplies the data
        (``supplied_by_cache``) by consulting the coherence protocol.
        """
        if request_cycle < 0:
            raise BusError("request cycle must be non-negative")
        cycle = self._cycle
        tx_type = transaction.type
        transaction.issue_cycle = request_cycle
        grant = max(request_cycle, self._free_at)
        transaction.grant_cycle = grant
        transaction.sequence = self._sequence
        self._sequence += 1

        carries = tx_type.carries_data and data_bytes > 0
        if tx_type.is_short_message:
            latency = 2 * cycle
        elif transaction.supplied_by_cache:
            latency = self._c2c_latency
        else:
            latency = self._mem_latency

        security_layer = self.security_layer
        if security_layer is not None:
            # The security layer may stall the transfer (mask readiness)
            # and adds its fixed per-message overhead; it also injects
            # MAC broadcasts, which recursively occupy the bus.
            latency += security_layer.before_transfer(transaction, grant)

        if self._split:
            # Gigaplane-style: the address bus is held for one cycle
            # per transaction; the data phase queues on the separate
            # data bus and the requester waits for its slot.
            self._free_at = grant + cycle
            if carries:
                data_cycles = -(-data_bytes // self._line_bytes) * cycle
                data_start = max(grant, self._data_free_at)
                self._data_free_at = data_start + data_cycles
                latency += data_start - grant
            transaction.complete_cycle = grant + latency
        else:
            occupancy = cycle
            if carries:
                occupancy += -(-data_bytes // self._line_bytes) * cycle
            self._free_at = grant + occupancy
            transaction.complete_cycle = grant + latency

        # Deferred traffic accounting (flushed on any stats read).
        self._pending_transactions += 1
        by_type = self._pending_by_type
        name = tx_type.counter_name
        by_type[name] = by_type.get(name, 0) + 1
        if transaction.supplied_by_cache and tx_type.carries_data:
            self._pending_c2c += 1
        elif tx_type.is_memory_data:
            # Line movement to/from memory. Security messages (MAC
            # broadcasts, pad requests) are counted by type only.
            self._pending_with_memory += 1

        for observer in self._observers:
            observer(transaction)
        if self.fault_hook is not None:
            self.fault_hook(transaction)
        if security_layer is not None:
            security_layer.after_transfer(transaction)
        return transaction

    # -- statistics ----------------------------------------------------------

    def _flush_stats(self) -> None:
        """Drain pending traffic counts into the registry."""
        add = self.stats.add
        if self._pending_transactions:
            add("bus.transactions", self._pending_transactions)
            self._pending_transactions = 0
        if self._pending_by_type:
            for name, count in self._pending_by_type.items():
                add(name, count)
            self._pending_by_type.clear()
        if self._pending_c2c:
            add("bus.cache_to_cache", self._pending_c2c)
            self._pending_c2c = 0
        if self._pending_with_memory:
            add("bus.with_memory", self._pending_with_memory)
            self._pending_with_memory = 0

    @property
    def total_transactions(self) -> int:
        return self.stats.get("bus.transactions")

    @property
    def cache_to_cache_transfers(self) -> int:
        return self.stats.get("bus.cache_to_cache")

    def reset(self) -> None:
        self._free_at = 0
        self._data_free_at = 0
        self._sequence = 0
