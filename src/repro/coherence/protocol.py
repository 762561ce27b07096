"""Illinois-MESI snooping write-invalidate protocol.

This module owns the global coherence decisions the bus cannot make
locally: for a given BusRd/BusRdX, which remote cache (if any) supplies
the line, what state every cache ends in, and whether the transfer is
cache-to-cache or from memory.

We model the Illinois variant of MESI (the classic SMP choice, and the
one that maximizes the cache-to-cache transfers SENSS must protect): a
remote cache with *any* valid copy supplies the block, memory supplies
only when no cache has it. A remote MODIFIED supplier also updates
memory (so its state can drop to SHARED).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cache.hierarchy import CacheHierarchy
from ..cache.mesi import MesiState
from ..errors import CoherenceError

_INVALID = MesiState.INVALID
_MODIFIED = MesiState.MODIFIED
_EXCLUSIVE = MesiState.EXCLUSIVE
_SHARED = MesiState.SHARED


class SnoopOutcome:
    """Result of broadcasting a coherence request to all remote caches.

    A ``__slots__`` record (one is built per bus transaction, so it
    stays off the dataclass machinery like :class:`BusTransaction`).
    """

    __slots__ = ("supplier_cpu", "had_modified_copy",
                 "invalidated_cpus", "fill_state")

    def __init__(self, supplier_cpu: Optional[int],
                 had_modified_copy: bool,
                 invalidated_cpus: List[int],
                 fill_state: MesiState):
        self.supplier_cpu = supplier_cpu        # None -> memory supplies
        self.had_modified_copy = had_modified_copy  # dirty line flushed
        self.invalidated_cpus = invalidated_cpus    # caches losing a copy
        self.fill_state = fill_state            # state requester installs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SnoopOutcome(supplier={self.supplier_cpu}, "
                f"dirty={self.had_modified_copy}, "
                f"invalidated={self.invalidated_cpus}, "
                f"fill={self.fill_state})")


class MesiProtocol:
    """Stateless coordinator over the per-CPU cache hierarchies."""

    def __init__(self, hierarchies: Sequence[CacheHierarchy]):
        self._hierarchies = list(hierarchies)
        # Snoops broadcast to every cache but the requester's; build
        # the (cpu_id, hierarchy, l2) remote list per requester once
        # instead of filtering on every bus transaction. The L2 rides
        # along so the hot snoop loops probe its block index directly
        # instead of going through two call layers per remote per
        # miss. The list holds the cache, never its ``_lines`` dict:
        # the index is rebuilt when a snapshot is restored, and the
        # cache is what a pickle shares by reference.
        self._remote_lists = [
            [(cpu_id, hierarchy, hierarchy.l2)
             for cpu_id, hierarchy in enumerate(self._hierarchies)
             if cpu_id != requester]
            for requester in range(len(self._hierarchies))]
        # Optional observability probe (repro.obs.Tracer): sees every
        # snoop outcome before it reaches the bus, pairing supplier /
        # invalidation data with the miss timing the system reports.
        self.observer = None

    def _remotes(self, requester: int):
        return self._remote_lists[requester]

    def bus_read(self, requester: int, line_address: int) -> SnoopOutcome:
        """Remote effects of a read miss (BusRd).

        The remote probe is ``SetAssociativeCache.lookup_line``
        inlined (one block-index probe, touch=False — snoops never
        perturb remote LRU order), with the MESI downgrade of
        ``CacheHierarchy.snoop_read`` applied in place: most snoops
        find nothing, and the two call layers per remote per miss
        dominate the broadcast cost.
        """
        supplier: Optional[int] = None
        had_modified = False
        any_shared = False
        for cpu_id, hierarchy, l2 in self._remote_lists[requester]:
            line = l2._lines.get(line_address >> l2._offset_bits)
            if line is None:
                continue
            prior = line.state
            if prior is _INVALID:
                continue
            if prior is _MODIFIED:
                line.state = _SHARED
                had_modified = True
                supplier = cpu_id  # dirty owner always supplies
            else:
                if prior is _EXCLUSIVE:
                    line.state = _SHARED
                if supplier is None:
                    supplier = cpu_id
            any_shared = True
        fill_state = _SHARED if any_shared else _EXCLUSIVE
        outcome = SnoopOutcome(supplier_cpu=supplier,
                               had_modified_copy=had_modified,
                               invalidated_cpus=[],
                               fill_state=fill_state)
        if self.observer is not None:
            self.observer.on_snoop(0, requester, line_address, outcome)
        return outcome

    def bus_read_exclusive(self, requester: int,
                           line_address: int) -> SnoopOutcome:
        """Remote effects of a write miss (BusRdX): fetch + invalidate.

        Same inlined remote probe as :meth:`bus_read`; a hit
        invalidates in place and enforces L1 inclusion through the
        hierarchy (the rare path).
        """
        supplier: Optional[int] = None
        had_modified = False
        invalidated: List[int] = []
        for cpu_id, hierarchy, l2 in self._remote_lists[requester]:
            line = l2._lines.get(line_address >> l2._offset_bits)
            if line is None:
                continue
            prior = line.state
            if prior is _INVALID:
                continue
            line.state = _INVALID
            hierarchy._enforce_inclusion(line_address)
            invalidated.append(cpu_id)
            if supplier is None or prior is _MODIFIED:
                supplier = cpu_id
            if prior is _MODIFIED:
                had_modified = True
        outcome = SnoopOutcome(supplier_cpu=supplier,
                               had_modified_copy=had_modified,
                               invalidated_cpus=invalidated,
                               fill_state=MesiState.MODIFIED)
        if self.observer is not None:
            self.observer.on_snoop(1, requester, line_address, outcome)
        return outcome

    #: states a requester may upgrade from (MOESI adds OWNED)
    UPGRADABLE_STATES = (MesiState.SHARED,)

    def bus_upgrade(self, requester: int, line_address: int) -> SnoopOutcome:
        """Remote effects of an S->M upgrade: invalidate all sharers."""
        requester_state = self._hierarchies[requester].state_of(line_address)
        if requester_state not in self.UPGRADABLE_STATES:
            raise CoherenceError(
                f"upgrade from state {requester_state} on cpu {requester}")
        invalidated: List[int] = []
        for entry in self._remote_lists[requester]:
            cpu_id, hierarchy = entry[0], entry[1]
            prior = hierarchy.snoop_read_exclusive(line_address)
            if prior.is_valid:
                invalidated.append(cpu_id)
        outcome = SnoopOutcome(supplier_cpu=None,
                               had_modified_copy=False,
                               invalidated_cpus=invalidated,
                               fill_state=MesiState.MODIFIED)
        if self.observer is not None:
            self.observer.on_snoop(2, requester, line_address, outcome)
        return outcome

    # -- invariant checking (used by property tests) ---------------------

    def check_invariants(self, line_address: int) -> None:
        """SWMR: at most one M/E copy (excluding all others); at most
        one OWNED copy, which may coexist only with SHARED copies."""
        states = [h.state_of(line_address) for h in self._hierarchies]
        exclusive_like = [s for s in states
                          if s in (MesiState.MODIFIED, MesiState.EXCLUSIVE)]
        owned = [s for s in states if s is MesiState.OWNED]
        valid = [s for s in states if s.is_valid]
        if len(exclusive_like) > 1:
            raise CoherenceError(
                f"multiple M/E copies of {line_address:#x}: {states}")
        if exclusive_like and len(valid) > 1:
            raise CoherenceError(
                "M/E copy coexists with other copies of "
                f"{line_address:#x}: {states}")
        if len(owned) > 1:
            raise CoherenceError(
                f"multiple OWNED copies of {line_address:#x}: {states}")
        if owned and exclusive_like:
            raise CoherenceError(
                f"OWNED coexists with M/E on {line_address:#x}: "
                f"{states}")
