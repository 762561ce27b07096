"""MOESI — the MESI variant with an Owned state (protocol ablation).

MESI's dirty intervention flushes the line to memory as it is shared
out (the supplier drops from M to S). MOESI keeps the dirty line
on-chip: the supplier moves to OWNED, continues to answer BusRd
requests for the line, and memory is only updated when the O copy is
finally evicted. The effect SENSS cares about: dirty sharing stays
entirely on the cache-to-cache path (protected by the bus masks), and
the memory-update traffic of read-shared dirty lines disappears.
"""

from __future__ import annotations

from typing import List, Optional

from ..cache.mesi import MesiState
from .protocol import MesiProtocol, SnoopOutcome


class MoesiProtocol(MesiProtocol):
    """MESI plus the Owned state."""

    # An O holder, like an S holder, must broadcast before writing.
    UPGRADABLE_STATES = (MesiState.SHARED, MesiState.OWNED)

    def bus_read(self, requester: int, line_address: int) -> SnoopOutcome:
        """Remote effects of a read miss under MOESI.

        A dirty holder (M or O) supplies and *retains ownership* (M
        drops to O, O stays O); memory is NOT updated, so the outcome
        reports no dirty flush. Clean holders behave as in MESI.
        """
        supplier: Optional[int] = None
        owner: Optional[int] = None
        any_valid = False
        for entry in self._remotes(requester):
            cpu_id, hierarchy = entry[0], entry[1]
            prior = hierarchy.snoop_read(line_address,
                                         dirty_to_owned=True)
            if not prior.is_valid:
                continue
            any_valid = True
            if supplier is None:
                supplier = cpu_id
            if prior in (MesiState.MODIFIED, MesiState.OWNED):
                owner = cpu_id
        if owner is not None:
            supplier = owner
        fill_state = (MesiState.SHARED if any_valid
                      else MesiState.EXCLUSIVE)
        return SnoopOutcome(supplier_cpu=supplier,
                            # Ownership was retained: nothing flushed.
                            had_modified_copy=False,
                            invalidated_cpus=[],
                            fill_state=fill_state)

    def bus_read_exclusive(self, requester: int,
                           line_address: int) -> SnoopOutcome:
        """Write miss: identical to MESI except an O holder (not just
        M) is the dirty supplier whose data must move."""
        supplier: Optional[int] = None
        had_dirty = False
        invalidated: List[int] = []
        for entry in self._remotes(requester):
            cpu_id, hierarchy = entry[0], entry[1]
            prior = hierarchy.snoop_read_exclusive(line_address)
            if not prior.is_valid:
                continue
            invalidated.append(cpu_id)
            if supplier is None:
                supplier = cpu_id
            if prior in (MesiState.MODIFIED, MesiState.OWNED):
                had_dirty = True
                supplier = cpu_id
        return SnoopOutcome(supplier_cpu=supplier,
                            had_modified_copy=had_dirty,
                            invalidated_cpus=invalidated,
                            fill_state=MesiState.MODIFIED)
