"""The fault injector: perturbs the timing simulation, watches defenses.

``FaultInjector.attach`` wires into the two optional hooks added for
it — ``SharedBus.fault_hook`` (called on every granted transaction,
after observers, before the security layer's ``after_transfer``) and
``MemProtectLayer.fault_hook`` (pad-cache consultations, pad
write-back refreshes, hash-tree verifies). Both are single
``is not None`` tests on the miss/security slow path: the fused hit
loop never consults them, and a run with no injector attached (or an
attached injector whose plan never triggers) is bit-identical to an
unfaulted run (pinned by tests/faults/test_identity.py).

**Detection model.** The functional protocol (repro.core) chains
every protected message into a per-member CBC-MAC; the interval check
compares the members' chains (section 4.3). The injector mirrors that
with cheap integer hash chains: the *sender* of a message chains its
fingerprint at send time (it knows what it sent), every *receiver*
chains what was delivered to it, in delivery order. A drop leaves a
victim's chain short; a reorder gives the sender a different order
than everyone else; a spoof or bit-flip feeds victims a fingerprint
nobody sent. When the SENSS layer's MAC broadcast appears on the bus,
the injector compares chains exactly where the hardware would — any
divergence is a detection, attributed to ``mac_interval``. A spoof
delivered to the PID it claims is detected immediately
(``spoof_self``), matching the paper's own-PID snoop rule. Pad and
Merkle corruptions are *armed* state poisonings, detected when the
poisoned state is next consulted (``pad_coherence`` /
``merkle_verify``).

Detected faults are handed to the :class:`~repro.faults.recovery.
RecoveryEngine`; under ``halt`` the matching error class propagates
out of ``system.run``.

Only the injector counts the fault streams (:meth:`FaultInjector.
cursors`). A campaign's clean prefix runs under an empty-plan
injector that pickles with the machine; a forked cell re-arms it
(:meth:`FaultInjector.arm_on`). Faulted runs — points with a plan:
campaign cells, ``replay --perturb fault=...`` — execute through
:func:`repro.sim.checkpoint.fork_point`, the one run driver, which
arms the point's plan and reports a halting recovery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bus.transaction import BusTransaction, TransactionType
from ..errors import ConfigError
from .plan import FaultKind, FaultPlan, FaultSpec
from .recovery import HALT, RecoveryEngine
from .scoreboard import (MECH_MAC, MECH_MERKLE, MECH_PAD, MECH_SPOOF,
                         MECHANISMS, DetectionScoreboard, FaultRecord)

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: salts separating a corrupted delivery from the honest fingerprint
_SALT_FLIP = 0xF11F
_SALT_SPOOF = 0x5B00F
_SALT_DESYNC = 0xDE51

#: stable integer code per fault kind / mechanism (obs payload words)
FAULT_KIND_INDEX = {kind: index
                    for index, kind in enumerate(FaultKind.ALL)}
MECHANISM_INDEX = {name: index
                   for index, name in enumerate(MECHANISMS)}

_TX_TYPE_INDEX = {tx_type: index
                  for index, tx_type in enumerate(TransactionType)}


def _mix(chain: int, value: int) -> int:
    return ((chain ^ value) * _FNV_PRIME) & _MASK64


def _check_plan(plan: FaultPlan, system) -> None:
    """Raise ConfigError unless ``system`` has the layers ``plan``'s
    fault kinds perturb."""
    needs_senss = any(spec.kind in FaultKind.BUS for spec in plan)
    needs_memprotect = any(spec.kind in FaultKind.MEMORY
                           for spec in plan)
    if needs_senss and system.bus.security_layer is None:
        raise ConfigError(
            "bus fault kinds need the SENSS layer attached "
            "(senss.enabled=True)")
    if needs_memprotect and system.memprotect is None:
        raise ConfigError(
            "pad/merkle fault kinds need the memory-protection "
            "layer attached")
    if any(spec.kind == FaultKind.MERKLE_FLIP for spec in plan):
        memprotect = system.memprotect
        if not memprotect.integrity or memprotect.lazy:
            raise ConfigError(
                "merkle-flip needs integrity_enabled without "
                "lazy_verification")
    if any(spec.kind in (FaultKind.PAD_CORRUPT, FaultKind.SEQ_CORRUPT)
           for spec in plan):
        if not system.memprotect.encryption or \
                system.memprotect.direct_encryption:
            raise ConfigError(
                "pad fault kinds need OTP memory encryption")


def stream_position(cursors: Dict[str, object], spec: FaultSpec) -> int:
    """The cursor (:meth:`FaultInjector.cursors`) ``spec``'s trigger
    is measured against: the fault fires when it reaches
    ``spec.trigger``."""
    if spec.kind in FaultKind.BUS:
        return cursors["stream"].get(str(spec.group_id), 0)
    if spec.kind == FaultKind.MERKLE_FLIP:
        return cursors["verify"]
    return cursors["pad"].get(str(spec.cpu), 0)


class FaultInjector:
    """Executes a :class:`FaultPlan` against one simulated run."""

    def __init__(self, plan: FaultPlan, policy: str = HALT):
        self.recovery: Optional[RecoveryEngine] = None
        self.system = None
        self._bus = None
        self._injecting = False
        # Per-group integer MAC chains: group -> {pid: chain}.
        self._chains: Dict[int, Dict[int, int]] = {}
        # Deterministic stream cursors (events already seen).
        self._stream_index: Dict[int, int] = {}   # group -> msg count
        self._pad_index: Dict[int, int] = {}      # cpu -> pad events
        self._verify_index = 0                    # hash verifies
        self.arm(plan, policy)

    # -- attachment ----------------------------------------------------

    @staticmethod
    def attached_to(system) -> Optional["FaultInjector"]:
        """The injector hooked into ``system``'s bus, if any."""
        injector = getattr(system.bus.fault_hook, "__self__", None)
        return injector if isinstance(injector, FaultInjector) else None

    @classmethod
    def arm_on(cls, system, plan: FaultPlan,
               policy: str) -> "FaultInjector":
        """Arm ``plan`` on ``system``: re-:meth:`arm` the injector it
        carries (a restored campaign prefix), else :meth:`attach` a
        new one."""
        injector = cls.attached_to(system)
        if injector is None:
            return cls(plan, policy).attach(system)
        return injector.arm(plan, policy)

    def attach(self, system) -> "FaultInjector":
        """Hook the bus and (if present) the memory-protection layer.
        A machine takes one injector (re-:meth:`arm` it instead)."""
        if self.attached_to(system) is not None:
            raise ConfigError("the machine already has a fault injector"
                              " attached; re-arm it instead")
        _check_plan(self.plan, system)
        self.system = system
        self._bus = system.bus
        system.bus.fault_hook = self._on_bus_tx
        if system.memprotect is not None:
            system.memprotect.fault_hook = self
        self.recovery = RecoveryEngine(system, self.policy,
                                       self.scoreboard)
        system.stats.register_flusher(self._flush_stats)
        return self

    def arm(self, plan: FaultPlan, policy: str = HALT
            ) -> "FaultInjector":
        """Load ``plan`` and ``policy`` with a fresh scoreboard,
        keeping stream cursors, MAC chains and the last MAC checkpoint
        per group: a fault-free injector re-armed is in the state a
        cold injector with ``plan`` has at the same access count."""
        scoreboard = DetectionScoreboard()
        if self.system is not None:
            _check_plan(plan, self.system)
            recovery = RecoveryEngine(self.system, policy, scoreboard)
            recovery.checkpoints = self.recovery.checkpoints
            self.recovery = recovery
        self.plan = plan
        self.policy = policy
        self.scoreboard = scoreboard
        # Planned faults keyed by their trigger point.
        self._bus_pending: Dict[Tuple[int, int], List[FaultSpec]] = {}
        self._pad_pending: Dict[Tuple[int, int], List[FaultSpec]] = {}
        self._merkle_pending: Dict[int, List[FaultSpec]] = {}
        for spec in plan:
            if spec.kind in FaultKind.BUS:
                self._bus_pending.setdefault(
                    (spec.group_id, spec.trigger), []).append(spec)
            elif spec.kind == FaultKind.MERKLE_FLIP:
                self._merkle_pending.setdefault(
                    spec.trigger, []).append(spec)
            else:
                self._pad_pending.setdefault(
                    (spec.cpu, spec.trigger), []).append(spec)
        # Armed/awaiting state.
        self._await_mac: Dict[int, List[Tuple[FaultRecord, int]]] = {}
        self._held: Dict[int, Tuple[int, int]] = {}  # group: (fp, pid)
        self._poisoned: Dict[Tuple[int, int], FaultRecord] = {}
        self._armed_merkle: List[FaultRecord] = []
        self._flushed: Dict[str, int] = {}
        return self

    def cursors(self) -> Dict[str, object]:
        """Events already seen per stream: protected messages per
        group, pad consultations per CPU, hash-tree verifies; keyed by
        decimal strings, which a JSON round trip keeps."""
        return {"stream": {str(group): count for group, count
                           in self._stream_index.items()},
                "pad": {str(cpu): count for cpu, count
                        in self._pad_index.items()},
                "verify": self._verify_index}

    # -- chain bookkeeping ---------------------------------------------

    def _group_chains(self, group_id: int) -> Dict[int, int]:
        chains = self._chains.get(group_id)
        if chains is None:
            layer = self._bus.security_layer
            if layer is not None:
                members = layer.group_state(group_id).member_pids
            else:
                members = range(self.system.config.num_processors)
            chains = {pid: _FNV_OFFSET for pid in members}
            self._chains[group_id] = chains
        return chains

    def _fingerprint(self, transaction: BusTransaction,
                     index: int) -> int:
        fp = _mix(_FNV_OFFSET, index)
        fp = _mix(fp, transaction.address)
        return _mix(fp, (_TX_TYPE_INDEX[transaction.type] << 8)
                    | (transaction.source_pid & 0xFF))

    @staticmethod
    def _chain_all(chains: Dict[int, int], fp: int) -> None:
        for pid in chains:
            chains[pid] = _mix(chains[pid], fp)

    def _resync(self, group_id: int) -> None:
        """Post-recovery: fresh IVs restart every member's chain."""
        chains = self._chains.get(group_id)
        if chains:
            for pid in chains:
                chains[pid] = _FNV_OFFSET

    # -- bus hook ------------------------------------------------------

    def _on_bus_tx(self, transaction: BusTransaction) -> None:
        if transaction.type is TransactionType.AUTH_MAC:
            self._on_auth_mac(transaction)
            return
        if self._injecting:
            return  # a transaction the injector itself put on the bus
        if not (transaction.type.protectable
                and transaction.supplied_by_cache):
            return
        group = transaction.group_id
        index = self._stream_index.get(group, 0)
        self._stream_index[group] = index + 1
        fp = self._fingerprint(transaction, index)
        sender = transaction.source_pid
        chains = self._group_chains(group)
        held = self._held.pop(group, None)

        specs = self._bus_pending.pop((group, index), None)
        if specs is None:
            self._chain_all(chains, fp)
        else:
            for spec in specs:
                self._apply_bus_fault(spec, transaction, index, fp,
                                      sender, chains)
        if held is not None:
            # Release the reordered message: everyone but its sender
            # (who chained it at send time) sees it late, here.
            held_fp, held_sender = held
            for pid in chains:
                if pid != held_sender:
                    chains[pid] = _mix(chains[pid], held_fp)

    def _apply_bus_fault(self, spec: FaultSpec,
                         transaction: BusTransaction, index: int,
                         fp: int, sender: int,
                         chains: Dict[int, int]) -> None:
        group = transaction.group_id
        cycle = transaction.grant_cycle
        # tx positions are in *protected-message* stream units — the
        # same stream the authentication interval counts — so
        # latency_tx <= auth_interval holds by construction for
        # MAC-interval detections.
        record = self.scoreboard.open_record(
            spec.kind, spec.label, group_id=group,
            cpu=spec.cpu if spec.cpu >= 0 else sender,
            cycle=cycle, tx=index)
        self._emit_inject(record, cycle)

        if spec.kind == FaultKind.DROP:
            victims = set(spec.victims) or \
                {pid for pid in chains if pid != sender}
            victims.discard(sender)
            for pid in chains:
                if pid not in victims:
                    chains[pid] = _mix(chains[pid], fp)
            if victims & set(chains):
                self._await_mac.setdefault(group, []).append(
                    (record, sender))
            return

        if spec.kind == FaultKind.REORDER:
            # Hold this message past the next one. The sender chains
            # at send time (true order); receivers will chain it when
            # the next protected message releases it.
            chains[sender] = _mix(chains.get(sender, _FNV_OFFSET), fp)
            self._held[group] = (fp, sender)
            self._await_mac.setdefault(group, []).append(
                (record, sender))
            return

        if spec.kind == FaultKind.BIT_FLIP:
            victims = set(spec.victims) or \
                {pid for pid in chains if pid != sender}
            victims.discard(sender)
            corrupted = _mix(fp, _SALT_FLIP)
            for pid in chains:
                chains[pid] = _mix(chains[pid],
                                   corrupted if pid in victims else fp)
            if victims & set(chains):
                self._await_mac.setdefault(group, []).append(
                    (record, sender))
            return

        if spec.kind == FaultKind.MASK_DESYNC:
            victim = spec.cpu if spec.cpu >= 0 else sender
            self._desync_mask_array(group)
            tainted = _mix(fp, _SALT_DESYNC)
            for pid in chains:
                chains[pid] = _mix(chains[pid],
                                   tainted if pid == victim else fp)
            if victim in chains:
                self._await_mac.setdefault(group, []).append(
                    (record, victim))
            return

        # FaultKind.SPOOF: the honest message is delivered intact, the
        # attacker adds a forged one claiming a member's PID.
        self._chain_all(chains, fp)
        claimed = spec.claimed_pid
        victims = set(spec.victims) if spec.victims else set(chains)
        forged_fp = _mix(fp, _SALT_SPOOF + claimed)
        if claimed in victims and claimed in chains:
            # Own-PID snoop: immediate global alarm (section 4.3).
            forged = self._issue_forged(transaction, claimed, group)
            self.scoreboard.mark_detected(record, MECH_SPOOF,
                                          forged.grant_cycle,
                                          index + 1)
            self._emit_detect(record)
            penalty = self.recovery.handle(
                [record], MECH_SPOOF, group, -1, forged.grant_cycle)
            self._charge_bus(forged.grant_cycle, penalty)
            self._resync(group)
            return
        for pid in victims:
            if pid in chains:
                chains[pid] = _mix(chains[pid], forged_fp)
        self._await_mac.setdefault(group, []).append((record, -1))
        self._issue_forged(transaction, claimed, group)

    def _issue_forged(self, original: BusTransaction, claimed: int,
                      group: int) -> BusTransaction:
        """Put the forged message on the real bus (occupancy/traffic)."""
        forged = BusTransaction(original.type, original.address,
                                claimed, group, supplied_by_cache=True)
        self._injecting = True
        try:
            self._bus.issue(forged, self._bus.free_at,
                            data_bytes=self.system.config.l2.line_bytes)
        finally:
            self._injecting = False
        return forged

    def _desync_mask_array(self, group: int) -> None:
        layer = self._bus.security_layer
        if layer is None:
            return
        mask_array = layer.group_state(group).mask_array
        if not mask_array.is_perfect:
            # The victim's slot misses a regeneration window: its next
            # readiness slips by one AES pass, a real timing wound.
            slot = mask_array._sequence % mask_array.num_masks
            mask_array._ready[slot] += mask_array.aes_latency

    # -- MAC checkpoint ------------------------------------------------

    def _on_auth_mac(self, transaction: BusTransaction) -> None:
        group = transaction.group_id
        cycle = transaction.grant_cycle
        chains = self._chains.get(group)
        pending = self._await_mac.pop(group, [])
        diverged = chains is not None and len(set(chains.values())) > 1
        if diverged and pending:
            records = [record for record, _ in pending]
            culprit = next((pid for _, pid in pending if pid >= 0), -1)
            stream = self._stream_index.get(group, 0)
            for record in records:
                self.scoreboard.mark_detected(record, MECH_MAC, cycle,
                                              stream)
                self._emit_detect(record)
            penalty = self.recovery.handle(records, MECH_MAC, group,
                                           culprit, cycle)
            self._charge_bus(cycle, penalty)
            self._resync(group)
        elif diverged:
            # Divergence with no open record (should not happen):
            # resync so one anomaly is not reported at every interval.
            self._resync(group)
        self.recovery.on_checkpoint(group, cycle)

    def _charge_bus(self, cycle: int, penalty: int) -> None:
        if penalty > 0:
            bus = self._bus
            bus._free_at = max(bus._free_at, cycle) + penalty

    # -- memory-protection hooks ---------------------------------------

    def on_pad_event(self, cpu: int, line_address: int, clock: int,
                     hit: bool) -> int:
        """Pad/SNC consulted; returns recovery penalty cycles, if any."""
        penalty = 0
        key = (cpu, line_address)
        index = self._pad_index.get(cpu, 0)
        self._pad_index[cpu] = index + 1
        record = self._poisoned.pop(key, None)
        if record is not None:
            if hit:
                # The poisoned entry was used: garbage plaintext,
                # caught by the pad coherence/decryption check. tx
                # positions count this CPU's pad consultations.
                self.scoreboard.mark_detected(record, MECH_PAD, clock,
                                              index)
                self._emit_detect(record)
                penalty += self.recovery.handle([record], MECH_PAD, -1,
                                                -1, clock)
            else:
                record.masked = True  # entry gone before consultation
        for spec in self._pad_pending.pop((cpu, index), ()):
            poisoned = self.scoreboard.open_record(
                spec.kind, spec.label, cpu=cpu, cycle=clock, tx=index)
            self._emit_inject(poisoned, clock)
            self._corrupt_pad_entry(cpu, line_address)
            self._poisoned[key] = poisoned
        return penalty

    def _corrupt_pad_entry(self, cpu: int, line_address: int) -> None:
        entries = self.system.memprotect.pad_caches[cpu]._entries
        if line_address in entries:
            entries[line_address] ^= 0x5A5A

    def on_pad_writeback(self, cpu: int, line_address: int,
                         affected) -> None:
        """A write-back refreshed/invalidated pad entries: poisoned
        state it covered is silently healed — a *masked* fault."""
        self._mask_poison(cpu, line_address)
        for other in affected:
            self._mask_poison(other, line_address)

    def _mask_poison(self, cpu: int, line_address: int) -> None:
        record = self._poisoned.pop((cpu, line_address), None)
        if record is not None:
            record.masked = True

    def on_verify_event(self, cpu: int, address: int,
                        clock: int) -> int:
        """Hash-tree verify; armed node flips are caught here."""
        penalty = 0
        index = self._verify_index
        self._verify_index = index + 1
        if self._armed_merkle:
            armed, self._armed_merkle = self._armed_merkle, []
            for record in armed:
                # tx positions count hash-tree verification climbs.
                self.scoreboard.mark_detected(record, MECH_MERKLE,
                                              clock, index)
                self._emit_detect(record)
            penalty += self.recovery.handle(armed, MECH_MERKLE, -1, -1,
                                            clock)
        for spec in self._merkle_pending.pop(index, ()):
            record = self.scoreboard.open_record(
                spec.kind, spec.label, cpu=cpu, cycle=clock, tx=index)
            self._emit_inject(record, clock)
            self._armed_merkle.append(record)
        return penalty

    # -- observability -------------------------------------------------

    def _emit_inject(self, record: FaultRecord, cycle: int) -> None:
        obs = self.system._obs
        if obs is not None:
            obs.on_fault_inject(record, cycle)

    def _emit_detect(self, record: FaultRecord) -> None:
        obs = self.system._obs
        if obs is not None:
            obs.on_fault_detect(record)

    # -- stats export --------------------------------------------------

    def _flush_stats(self) -> None:
        scoreboard = self.scoreboard
        current = {
            "faults.injected": scoreboard.injected,
            "faults.detected": scoreboard.detected,
            "faults.masked": scoreboard.masked,
            "faults.recovered": scoreboard.recovered,
            "faults.penalty_cycles": scoreboard.penalty_cycles,
        }
        for mechanism, count in scoreboard.by_mechanism().items():
            current[f"faults.by_mechanism.{mechanism}"] = count
        add = self.system.stats.add
        for name, value in current.items():
            delta = value - self._flushed.get(name, 0)
            if delta:
                add(name, delta)
                self._flushed[name] = value

    # -- end of run ----------------------------------------------------

    def finalize(self) -> DetectionScoreboard:
        """Close the books: anything still armed stays undetected."""
        self._await_mac.clear()
        self._held.clear()
        self._poisoned.clear()
        self._armed_merkle.clear()
        return self.scoreboard

    @property
    def untriggered(self) -> int:
        """Planned faults whose trigger point the run never reached."""
        return len(self.plan) - self.scoreboard.injected
