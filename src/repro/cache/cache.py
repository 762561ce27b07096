"""Set-associative, write-back cache tag store with LRU replacement.

This is a *tag* model: the simulator tracks which lines are resident
and in what MESI state, not the data bytes (the functional SENSS layer
carries real bytes separately). Each instance models one cache level of
one processor. Addresses are byte addresses; lookups are by line.

Every lookup is one probe of a *block index* (``_lines``: block
number, i.e. line address >> offset bits, → the way holding it, in
any state) plus a state test. The per-set way lists (``_sets``) are
consulted only to choose a victim on a fill into a full set. The hot
callers that inline lookups — the fast engine's hit loop, the MESI
snoop probes, ``CacheHierarchy.fill`` and the memory-protection
layer's hash-node probes — read ``_lines`` the same way.

The index is never pickled. A cache persists its resident ways as
compact columns in set/way order (blocks and LRU ticks as
``array('q')``, states one byte each) and ``__setstate__`` rebuilds
the ways, the :class:`CacheLine` records and the index in one pass,
so a restored cache iterates and evicts exactly like the original
(docs/checkpointing.md, format version 4). Nothing outside the cache
may keep a reference to ``_lines``, ``_sets`` or a ``CacheLine``
across a pickle: hold the cache instead.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import CacheConfig
from ..errors import CoherenceError
from .mesi import MesiState

_INVALID = MesiState.INVALID

#: state <-> its one-byte code in the compact pickled form
_STATES = tuple(MesiState)
_STATE_CODES = {state: code for code, state in enumerate(_STATES)}


class CacheLine:
    """Residency record for one cache line."""

    __slots__ = ("tag", "state", "last_used")

    def __init__(self, tag: int, state: MesiState, last_used: int):
        self.tag = tag
        self.state = state
        self.last_used = last_used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine(tag={self.tag:#x}, {self.state})"


def victim_way(ways: List[CacheLine]) -> CacheLine:
    """The way a fill into the full set ``ways`` replaces: the least
    recently used INVALID way if there is one, else the true LRU.

    LRU ticks are unique within a cache (every touch and fill takes
    the next one), so the victim does not depend on the ways' order.
    """
    # Manual scan with no per-way tuple or key call: this runs on
    # every fill into a full set.
    evict = ways[0]
    evict_valid = evict.state is not _INVALID
    evict_used = evict.last_used
    for line in ways:
        if line.state is _INVALID:
            if evict_valid or line.last_used < evict_used:
                evict = line
                evict_valid = False
                evict_used = line.last_used
        elif evict_valid and line.last_used < evict_used:
            evict = line
            evict_used = line.last_used
    return evict


class SetAssociativeCache:
    """LRU set-associative cache over line-aligned addresses."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        # set index -> list of CacheLine (at most `associativity` long),
        # in slot order (a fill into a full set retags its victim's
        # slot); read only to choose a victim
        self._sets: Dict[int, List[CacheLine]] = {}
        # block number -> the way holding it, whatever its state
        self._lines: Dict[int, CacheLine] = {}
        self._tick = 0

    # -- snapshot form ---------------------------------------------------

    def __getstate__(self):
        """Compact columns of the resident ways, in set/way order."""
        num_sets = self._num_sets
        ways = [(index, line) for index, lines in self._sets.items()
                for line in lines]
        return (self.config, self._tick,
                array("q", [line.tag * num_sets + index
                            for index, line in ways]),
                array("q", [line.last_used for _, line in ways]),
                bytes([_STATE_CODES[line.state] for _, line in ways]))

    def __setstate__(self, state) -> None:
        """Rebuild the ways, their records and the index in one pass."""
        config, tick, blocks, ticks, codes = state
        self.__init__(config)
        self._tick = tick
        num_sets = self._num_sets
        sets = self._sets
        lines = self._lines
        for block, last_used, code in zip(blocks, ticks, codes):
            line = lines[block] = CacheLine(block // num_sets,
                                            _STATES[code], last_used)
            index = block % num_sets
            ways = sets.get(index)
            if ways is None:
                sets[index] = [line]
            else:
                ways.append(line)

    # -- address arithmetic --------------------------------------------

    def line_address(self, address: int) -> int:
        """Align a byte address down to its line address."""
        return address >> self._offset_bits << self._offset_bits

    # -- lookup ----------------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line covering ``address``, or None.

        Lines in state INVALID are treated as absent. ``touch`` updates
        LRU recency (snoops pass touch=False so remote traffic does not
        perturb the local replacement order).
        """
        return self.lookup_line(
            address >> self._offset_bits << self._offset_bits, touch)

    def lookup_line(self, line_address: int,
                    touch: bool = True) -> Optional[CacheLine]:
        """``lookup`` for an already line-aligned address."""
        line = self._lines.get(line_address >> self._offset_bits)
        if line is None or line.state is _INVALID:
            return None
        if touch:
            self._tick += 1
            line.last_used = self._tick
        return line

    def contains(self, address: int) -> bool:
        return self.lookup(address, touch=False) is not None

    def state_of(self, address: int) -> MesiState:
        line = self.lookup(address, touch=False)
        return line.state if line else MesiState.INVALID

    # -- mutation ---------------------------------------------------------

    def insert(self, address: int,
               state: MesiState) -> Optional[Tuple[int, MesiState]]:
        """Install a line; returns (victim_line_address, victim_state) if
        a valid line had to be evicted, else None.

        The caller is responsible for issuing the write-back bus
        transaction when the victim is MODIFIED.
        """
        return self.insert_line(
            address >> self._offset_bits << self._offset_bits, state)

    def insert_line(self, line_address: int,
                    state: MesiState) -> Optional[Tuple[int, MesiState]]:
        """``insert`` for an already line-aligned address.

        A way still holding the block (even INVALID) is revived in
        place; otherwise a full set gives up :func:`victim_way`.
        """
        if not state.is_valid:
            raise CoherenceError("cannot insert a line in state I")
        block = line_address >> self._offset_bits
        tick = self._tick + 1
        self._tick = tick
        lines = self._lines
        line = lines.get(block)
        if line is not None:
            line.state = state
            line.last_used = tick
            return None
        num_sets = self._num_sets
        index = block % num_sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = []
        if len(ways) < self._assoc:
            line = lines[block] = CacheLine(block // num_sets, state, tick)
            ways.append(line)
            return None
        # Full set: the victim's way is retagged in place.
        evict = victim_way(ways)
        evicted = evict.tag * num_sets + index
        del lines[evicted]
        victim: Optional[Tuple[int, MesiState]] = None
        if evict.state is not _INVALID:
            victim = (evicted << self._offset_bits, evict.state)
        evict.tag = block // num_sets
        evict.state = state
        evict.last_used = tick
        lines[block] = evict
        return victim

    def set_state(self, address: int, state: MesiState) -> None:
        """Change the state of a resident line (I removes it logically)."""
        line = self._lines.get(address >> self._offset_bits)
        if line is not None:
            line.state = state
        elif state.is_valid:
            raise CoherenceError(
                f"set_state on non-resident line {address:#x}")

    def invalidate(self, address: int) -> bool:
        """Invalidate the line covering ``address``; True if it was valid."""
        return self.invalidate_line(
            address >> self._offset_bits << self._offset_bits)

    def invalidate_line(self, line_address: int) -> bool:
        """``invalidate`` for an already line-aligned address."""
        line = self._lines.get(line_address >> self._offset_bits)
        if line is None or line.state is _INVALID:
            return False
        line.state = _INVALID
        return True

    def iter_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield (line_address, line) for all valid resident lines."""
        for index, ways in self._sets.items():
            for line in ways:
                if line.state.is_valid:
                    block = line.tag * self._num_sets + index
                    yield block << self._offset_bits, line

    def valid_line_count(self) -> int:
        return sum(1 for _ in self.iter_lines())

    def flush(self) -> None:
        self._sets.clear()
        self._lines.clear()
        self._tick = 0
