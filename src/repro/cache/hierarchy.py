"""Per-processor two-level cache hierarchy (Figure 5 geometry).

Coherence state is tracked at L2 granularity (the L2 is inclusive of
the L1, as in the modeled Sun machines); the L1 is a residency filter
that only affects hit latency. On any L2 line invalidation or eviction,
the covering L1 lines are invalidated to preserve inclusion.

``access`` classifies a memory reference into one of the
:class:`AccessResult` kinds; the SMP system then performs whatever bus
transaction the classification requires and calls back into
``fill``/``upgrade`` to commit the state change. Splitting classify and
commit keeps the hierarchy free of bus knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from ..config import CacheConfig
from ..errors import CoherenceError
from ..sim.stats import StatsRegistry
from .cache import CacheLine, SetAssociativeCache, victim_way
from .mesi import MesiState

_INVALID = MesiState.INVALID
_SHARED = MesiState.SHARED


class AccessKind(Enum):
    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    L2_HIT_NEEDS_UPGRADE = "l2_hit_needs_upgrade"
    MISS = "miss"


@dataclass
class AccessResult:
    """Classification of one memory reference against the local caches."""

    kind: AccessKind
    line_address: int
    latency: int
    writeback_victim: Optional[int] = None  # line address needing WB


class CacheHierarchy:
    """L1 (I/D combined residency) + inclusive write-back L2."""

    def __init__(self, cpu_id: int, l1_config: CacheConfig,
                 l2_config: CacheConfig,
                 stats: Optional[StatsRegistry] = None):
        self.cpu_id = cpu_id
        self.l1 = SetAssociativeCache(l1_config)
        self.l2 = SetAssociativeCache(l2_config)
        self.stats = stats if stats is not None else StatsRegistry()
        self._prefix = f"cpu{cpu_id}."
        # L1-line offsets inside one L2 line, precomputed for the
        # inclusion sweep (a fresh range object per invalidation is
        # measurable on the snoop path).
        self._l1_offsets = tuple(range(0, l2_config.line_bytes,
                                       l1_config.line_bytes))
        # Deferred access-classification counters (flushed into the
        # registry on read; see StatsRegistry.register_flusher).
        self._pending_l1_hit = 0
        self._pending_l2_hit = 0
        self._pending_l2_miss = 0
        self._pending_upgrade = 0
        self.stats.register_flusher(self._flush_stats)

    def _flush_stats(self) -> None:
        add = self.stats.add
        prefix = self._prefix
        if self._pending_l1_hit:
            add(prefix + "l1_hit", self._pending_l1_hit)
            self._pending_l1_hit = 0
        if self._pending_l2_hit:
            add(prefix + "l2_hit", self._pending_l2_hit)
            self._pending_l2_hit = 0
        if self._pending_l2_miss:
            add(prefix + "l2_miss", self._pending_l2_miss)
            self._pending_l2_miss = 0
        if self._pending_upgrade:
            add(prefix + "upgrade_needed", self._pending_upgrade)
            self._pending_upgrade = 0

    # -- local access classification -----------------------------------

    def access(self, is_write: bool, address: int) -> AccessResult:
        """Classify a load/store; does not change coherence state except
        recording LRU recency and the silent E->M upgrade on write hits."""
        l2_line = self.l2.line_address(address)
        l2_entry = self.l2.lookup_line(l2_line)
        if l2_entry is None:
            self._pending_l2_miss += 1
            return AccessResult(AccessKind.MISS, l2_line,
                                latency=0)
        # L2 has the line; check write permission first.
        if is_write and not l2_entry.state.can_write:
            self._pending_upgrade += 1
            return AccessResult(AccessKind.L2_HIT_NEEDS_UPGRADE, l2_line,
                                latency=self.l2.config.hit_latency)
        if is_write:
            l2_entry.state = MesiState.MODIFIED  # includes silent E->M
        l1_entry = self.l1.lookup(address)
        if l1_entry is not None:
            self._pending_l1_hit += 1
            return AccessResult(AccessKind.L1_HIT, l2_line,
                                latency=self.l1.config.hit_latency)
        # L1 refill from L2 (no bus traffic; inclusion preserved).
        self.l1.insert(address, MesiState.SHARED)
        self._pending_l2_hit += 1
        return AccessResult(AccessKind.L2_HIT, l2_line,
                            latency=self.l2.config.hit_latency)

    # -- commit points called by the SMP system -------------------------

    def fill(self, line_address: int,
             state: MesiState) -> Optional[Tuple[int, MesiState]]:
        """Install a missed line in L2 (and L1); returns evicted victim.

        ``l2.insert_line``, the inclusion sweep over a valid L2 victim
        (``_enforce_inclusion``) and ``l1.insert_line(..., SHARED)``
        fused into one body over the caches' block indexes: the miss
        path runs this once per miss. An L2-aligned address is
        L1-aligned too (L2 lines are the larger power of two).
        """
        if state is _INVALID:
            raise CoherenceError("cannot insert a line in state I")
        l2 = self.l2
        l2_lines = l2._lines
        shift = l2._offset_bits
        block = line_address >> shift
        tick = l2._tick + 1
        l2._tick = tick
        victim: Optional[Tuple[int, MesiState]] = None
        line = l2_lines.get(block)
        if line is not None:
            line.state = state
            line.last_used = tick
        else:
            num_sets = l2._num_sets
            index = block % num_sets
            ways = l2._sets.get(index)
            if ways is None:
                ways = l2._sets[index] = []
            if len(ways) < l2._assoc:
                line = l2_lines[block] = CacheLine(block // num_sets,
                                                   state, tick)
                ways.append(line)
            else:
                evict = victim_way(ways)
                evicted = evict.tag * num_sets + index
                del l2_lines[evicted]
                if evict.state is not _INVALID:
                    victim_address = evicted << shift
                    victim = (victim_address, evict.state)
                    l1_lines = self.l1._lines
                    l1_shift = self.l1._offset_bits
                    for offset in self._l1_offsets:
                        covered = l1_lines.get(
                            (victim_address + offset) >> l1_shift)
                        if covered is not None:
                            covered.state = _INVALID
                evict.tag = block // num_sets
                evict.state = state
                evict.last_used = tick
                l2_lines[block] = evict

        l1 = self.l1
        l1_lines = l1._lines
        block = line_address >> l1._offset_bits
        tick = l1._tick + 1
        l1._tick = tick
        line = l1_lines.get(block)
        if line is not None:
            line.state = _SHARED
            line.last_used = tick
            return victim
        num_sets = l1._num_sets
        index = block % num_sets
        ways = l1._sets.get(index)
        if ways is None:
            ways = l1._sets[index] = []
        if len(ways) < l1._assoc:
            line = l1_lines[block] = CacheLine(block // num_sets, _SHARED,
                                               tick)
            ways.append(line)
            return victim
        evict = victim_way(ways)
        del l1_lines[evict.tag * num_sets + index]
        evict.tag = block // num_sets
        evict.state = _SHARED
        evict.last_used = tick
        l1_lines[block] = evict
        return victim

    def upgrade(self, line_address: int) -> None:
        """Commit an S->M upgrade after the invalidating bus transaction."""
        entry = self.l2.lookup_line(line_address, touch=False)
        if entry is None:
            raise CoherenceError(
                f"upgrade of non-resident line {line_address:#x}")
        entry.state = MesiState.MODIFIED

    # -- snooping (remote transactions) ---------------------------------

    def snoop_read(self, line_address: int,
                   dirty_to_owned: bool = False) -> MesiState:
        """Remote BusRd: return prior state; downgrade M/E.

        MESI flushes a MODIFIED line to memory and drops to SHARED;
        MOESI (``dirty_to_owned``) keeps responsibility on-chip by
        moving M to OWNED instead (memory stays stale).
        """
        entry = self.l2.lookup_line(line_address, touch=False)
        if entry is None:
            return MesiState.INVALID
        prior = entry.state
        if prior is MesiState.MODIFIED:
            entry.state = (MesiState.OWNED if dirty_to_owned
                           else MesiState.SHARED)
        elif prior is MesiState.EXCLUSIVE:
            entry.state = MesiState.SHARED
        return prior

    def snoop_read_exclusive(self, line_address: int) -> MesiState:
        """Remote BusRdX/Upgrade: return prior state; invalidate."""
        entry = self.l2.lookup_line(line_address, touch=False)
        if entry is None:
            return MesiState.INVALID
        prior = entry.state
        entry.state = MesiState.INVALID
        self._enforce_inclusion(line_address)
        return prior

    # -- helpers ----------------------------------------------------------

    def _enforce_inclusion(self, l2_line_address: int) -> None:
        """Invalidate all L1 lines covered by an evicted/invalid L2 line."""
        invalidate = self.l1.invalidate_line
        for offset in self._l1_offsets:
            invalidate(l2_line_address + offset)

    def state_of(self, address: int) -> MesiState:
        return self.l2.state_of(address)

    def flush(self) -> List[int]:
        """Drop all lines; returns addresses of dirty lines (for WB)."""
        dirty = [addr for addr, line in self.l2.iter_lines()
                 if line.state.is_dirty]
        self.l1.flush()
        self.l2.flush()
        return dirty
