"""The columnar trace-event log.

Events are stored the way :class:`~repro.smp.trace.ColumnarTrace`
stores accesses: machine integers in a flat ``array('q')``, not one
object per event. Every event is ``(kind, cycle, dur, cpu, a0, a1,
a2)``, kept as seven consecutive words, so recording one is a single
``fromlist`` call; the meaning of the ``a*`` payload words depends on
``kind`` (see :class:`EventKind` and the packing notes in
:mod:`repro.obs.tracer`). Export to human-readable form happens once,
in :mod:`repro.obs.export`.

One store, :class:`EventLog`, serves every tracer through its
``capacity``: ``None`` keeps every event (recordings — wrap-around
would read as divergence to the replay aligner), ``N`` keeps the
newest ``N`` and counts the rest as dropped (bounded tracer memory
regardless of run length), ``0`` records nothing (metrics-only
tracers).
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterator, NamedTuple, Optional

from ..errors import ConfigError


class EventKind:
    """Integer codes for the ``kind`` column (stable, schema-visible)."""

    BUS_TX = 0        # one per granted bus transaction
    MISS = 1          # L2 miss serviced over the bus (latency span)
    UPGRADE = 2       # S->M upgrade (latency span)
    MASK_STALL = 3    # protected message waited for a mask slot
    AUTH_MAC = 4      # authentication checkpoint (MAC broadcast)
    PAD_HIT = 5       # pad/sequence-number cache hit
    PAD_MISS = 6      # pad/sequence-number cache miss
    HASH_VERIFY = 7   # integrity verification climb
    HASH_UPDATE = 8   # parent hash update after a dirty eviction
    RUN_SPAN = 9      # per-CPU execute span (emitted at run end)
    FAULT_INJECT = 10  # a planned fault fired (repro.faults)
    FAULT_DETECT = 11  # a defense mechanism caught an injected fault

    ALL = (BUS_TX, MISS, UPGRADE, MASK_STALL, AUTH_MAC, PAD_HIT,
           PAD_MISS, HASH_VERIFY, HASH_UPDATE, RUN_SPAN,
           FAULT_INJECT, FAULT_DETECT)


class TraceEvent(NamedTuple):
    kind: int
    cycle: int
    dur: int
    cpu: int
    a0: int
    a1: int
    a2: int


#: words per event in the flat column
_WORDS = len(TraceEvent._fields)


class EventLog:
    """Columnar event store: lossless (``capacity=None``), the newest
    ``capacity`` events, or nothing (``capacity=0``).

    A bounded log trims lazily: it grows to twice its capacity, then
    drops the oldest surplus in one slice and tallies the dropped
    events' kinds, so :meth:`counts_by_kind` still covers every event
    recorded. Reads see exactly the window an overwrite-oldest ring of
    ``capacity`` slots would hold.
    """

    __slots__ = ("capacity", "_words", "_limit", "_trimmed",
                 "_trimmed_kinds")

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 0:
            raise ConfigError("event log capacity must be >= 0")
        self.capacity = capacity
        self._words = array("q")
        # word count past which record() trims (never when lossless)
        self._limit = sys.maxsize if capacity is None \
            else 2 * _WORDS * capacity
        self._trimmed = 0
        self._trimmed_kinds: Dict[int, int] = {}

    def record(self, kind: int, cycle: int, dur: int, cpu: int,
               a0: int = 0, a1: int = 0, a2: int = 0) -> None:
        words = self._words
        words.fromlist([kind, cycle, dur, cpu, a0, a1, a2])
        if len(words) > self._limit:
            self._trim()

    def _trim(self) -> None:
        """Drop all but the newest ``capacity`` events, tallying what
        is dropped (a capacity-0 log records nothing, so no tally)."""
        words = self._words
        if self.capacity:
            cut = len(words) - _WORDS * self.capacity
            totals = self._trimmed_kinds
            for kind in words[:cut:_WORDS]:
                totals[kind] = totals.get(kind, 0) + 1
            self._trimmed += cut // _WORDS
            del words[:cut]
        else:
            del words[:]

    # -- reading -------------------------------------------------------

    def _start(self) -> int:
        """Word offset of the oldest event in the read window."""
        if self.capacity is None:
            return 0
        return max(0, len(self._words) - _WORDS * self.capacity)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded, dropped ones included."""
        return self._trimmed + len(self._words) // _WORDS

    @property
    def dropped(self) -> int:
        """Oldest events outside the read window."""
        return self._trimmed + self._start() // _WORDS

    def __len__(self) -> int:
        return (len(self._words) - self._start()) // _WORDS

    def __iter__(self) -> Iterator[TraceEvent]:
        """Retained events, oldest first (recording order)."""
        words = self._words
        for offset in range(self._start(), len(words), _WORDS):
            yield TraceEvent._make(words[offset:offset + _WORDS])

    def counts_by_kind(self) -> Dict[int, int]:
        """``{kind_code: count}`` over every event recorded, dropped
        ones included."""
        counts = dict(self._trimmed_kinds)
        for kind in self._words[::_WORDS]:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def columns(self) -> Dict[str, list]:
        """JSON-ready ``{column: [int, ...]}`` of the retained
        events."""
        words, start = self._words, self._start()
        return {name: list(words[start + index::_WORDS])
                for index, name in enumerate(TraceEvent._fields)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventLog({len(self)}/{self.capacity} events, "
                f"{self.dropped} dropped)")
