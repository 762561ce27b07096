"""SENSS timing layer and secure-system assembly.

:class:`SenssBusLayer` attaches to :class:`repro.bus.bus.SharedBus` and
charges the security costs of sections 4-5 and 7.1 on every granted
transaction:

- **+3 cycles** per protected message — one sender-side XOR cycle plus
  two receiver-side cycles (GID/mask lookup, XOR) — section 7.1 "Bus
  designs";
- **mask-readiness stalls** when the finite mask array has not finished
  its background AES regeneration (section 4.4, Figure 3);
- a **MAC broadcast** (type-"00" transaction) injected every
  ``auth_interval`` cache-to-cache transfers (section 4.3), occupying
  the bus and thereby adding contention but staying off any single
  processor's critical path.

Only cache-to-cache data transfers go through the mask path: the
cache-to-memory traffic uses the (separately modeled) fast memory
encryption of section 6, and address-only coherence messages carry no
data block to encrypt.

**Multiple groups.** "There are multiple groups running in the SENSS
and each group maintains its own mask" (section 4.2) — the layer keeps
independent per-group state (mask array, authentication counter,
round-robin initiator over that group's members). Groups are created
lazily on first traffic, with membership defaulting to all processors;
``register_group`` narrows it (Figure 1's trusted subsets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..bus.transaction import BusTransaction, TransactionType
from ..config import SystemConfig
from ..errors import ConfigError
from ..smp.system import SmpSystem
from .masks import MaskTimingArray


@dataclass
class _GroupState:
    """Per-group security state inside the timing layer."""

    mask_array: MaskTimingArray
    member_pids: List[int]
    messages_stat: str
    auth_stat: str
    auth_counter: int = 0
    initiator_index: int = 0
    auth_broadcasts: int = 0
    protected_messages: int = 0
    # Deferred stats-registry counts (drained by the layer's flusher).
    pending_messages: int = 0
    pending_auth: int = 0


class SenssBusLayer:
    """Security timing hooks for the shared bus."""

    def __init__(self, config: SystemConfig):
        if not config.senss.enabled:
            raise ConfigError(
                "SenssBusLayer requires senss.enabled=True")
        self.config = config
        self.auth_interval = config.senss.auth_interval
        self._groups: Dict[int, _GroupState] = {}
        self._bus = None
        self.total_mask_wait = 0
        self._overhead = config.senss.per_message_overhead_cycles
        # Optional observability probe (repro.obs.Tracer): notified of
        # mask-readiness stalls and MAC checkpoint broadcasts.
        self.observer = None
        # Deferred aggregate counts (only accumulated while attached,
        # mirroring the registry-only-when-attached semantics).
        self._pending_protected = 0
        self._pending_mask_stalls = 0
        self._pending_mask_wait = 0

    # -- attachment ---------------------------------------------------------

    def attach(self, bus) -> None:
        """Register on the bus; the bus calls back on every grant."""
        self._bus = bus
        bus.security_layer = self
        bus.stats.register_flusher(self._flush_stats)

    def _flush_stats(self) -> None:
        add = self._bus.stats.add
        if self._pending_protected:
            add("senss.protected_messages", self._pending_protected)
            self._pending_protected = 0
        if self._pending_mask_stalls:
            add("senss.mask_stalls", self._pending_mask_stalls)
            add("senss.mask_wait_cycles", self._pending_mask_wait)
            self._pending_mask_stalls = 0
            self._pending_mask_wait = 0
        for state in self._groups.values():
            if state.pending_messages:
                add(state.messages_stat, state.pending_messages)
                state.pending_messages = 0
            if state.pending_auth:
                add(state.auth_stat, state.pending_auth)
                state.pending_auth = 0

    # -- group management ------------------------------------------------------

    def register_group(self, group_id: int,
                       member_pids: Optional[Sequence[int]] = None
                       ) -> _GroupState:
        """Create (or re-scope) a group's timing state.

        Omitting ``member_pids`` enrols every processor — the default
        for single-program runs.
        """
        members = (list(member_pids) if member_pids is not None
                   else list(range(self.config.num_processors)))
        if not members:
            raise ConfigError("a group needs at least one member")
        state = _GroupState(
            MaskTimingArray(self.config.senss.num_masks,
                            self.config.crypto.aes_latency),
            members,
            messages_stat=f"senss.group{group_id}.messages",
            auth_stat=f"senss.group{group_id}.auth")
        self._groups[group_id] = state
        return state

    def group_state(self, group_id: int) -> _GroupState:
        state = self._groups.get(group_id)
        if state is None:
            state = self.register_group(group_id)
        return state

    # -- aggregate statistics (back-compat with single-group callers) -----

    @property
    def mask_array(self) -> MaskTimingArray:
        """Group 0's mask array (the single-program default)."""
        return self.group_state(0).mask_array

    @property
    def protected_messages(self) -> int:
        return sum(state.protected_messages
                   for state in self._groups.values())

    @property
    def auth_broadcasts(self) -> int:
        return sum(state.auth_broadcasts
                   for state in self._groups.values())

    # -- bus callbacks ---------------------------------------------------------

    def before_transfer(self, transaction: BusTransaction,
                        grant_cycle: int) -> int:
        """Extra requester-visible latency for this transaction."""
        if not (transaction.type.protectable
                and transaction.supplied_by_cache):
            return 0
        group_id = transaction.group_id
        state = self._groups.get(group_id)
        if state is None:
            state = self.register_group(group_id)
        state.protected_messages += 1
        mask_wait = state.mask_array.consume(grant_cycle)
        self.total_mask_wait += mask_wait
        if self._bus is not None:
            if mask_wait:
                self._pending_mask_stalls += 1
                self._pending_mask_wait += mask_wait
            self._pending_protected += 1
            state.pending_messages += 1
        if mask_wait and self.observer is not None:
            self.observer.on_mask_stall(transaction, grant_cycle,
                                        mask_wait)
        return self._overhead + mask_wait

    def after_transfer(self, transaction: BusTransaction) -> None:
        """Advance the group's counter; broadcast its MAC when due."""
        if not (transaction.type.protectable
                and transaction.supplied_by_cache):
            return
        state = self._groups.get(transaction.group_id)
        if state is None:
            state = self.register_group(transaction.group_id)
        state.auth_counter += 1
        if state.auth_counter < self.auth_interval:
            return
        state.auth_counter = 0
        self._broadcast_mac(transaction.group_id, state,
                            transaction.grant_cycle)

    def _broadcast_mac(self, group_id: int, state: _GroupState,
                       cycle: int) -> None:
        """Inject the type-"00" authentication transaction.

        The initiating processor rotates round-robin over the group's
        members so a single failed member cannot silence
        authentication (section 4.3).
        """
        if self._bus is None:
            return
        initiator = state.member_pids[state.initiator_index
                                      % len(state.member_pids)]
        state.initiator_index += 1
        mac_message = BusTransaction(TransactionType.AUTH_MAC,
                                     address=0, source_pid=initiator,
                                     group_id=group_id)
        # A MAC digest fits one bus line; issue from the current bus
        # horizon. The recursive issue is safe: AUTH_MAC is not a
        # protected message so the callbacks return immediately.
        self._bus.issue(mac_message, max(cycle, self._bus.free_at),
                        data_bytes=16)
        state.auth_broadcasts += 1
        state.pending_auth += 1
        if self.observer is not None:
            self.observer.on_auth_mac(group_id, initiator,
                                      mac_message.grant_cycle)


def build_secure_system(config: SystemConfig) -> SmpSystem:
    """Assemble an SMP machine with the configured security layers.

    - ``config.senss.enabled`` attaches the SENSS bus layer;
    - ``config.memprotect.encryption_enabled`` /
      ``integrity_enabled`` attach the cache-to-memory protection of
      section 6 (see :mod:`repro.memprotect.integrated`).
    """
    system = SmpSystem(config)
    if config.senss.enabled:
        layer = SenssBusLayer(config)
        layer.attach(system.bus)
    memprotect = config.memprotect
    if memprotect.encryption_enabled or memprotect.integrity_enabled:
        from ..memprotect.integrated import MemProtectLayer
        MemProtectLayer(config).attach(system)
    return system
