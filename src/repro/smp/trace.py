"""Memory access traces.

A workload is one access trace per processor. Each access is
``(is_write, address, gap)`` where ``gap`` is the number of
non-memory instructions executed since the previous access (charged at
one cycle each on the 1 GHz core). Traces substitute for the paper's
Simics-executed SPLASH-2 binaries; the generators in
:mod:`repro.workloads` produce them.

Storage is columnar: :class:`ColumnarTrace` keeps the three fields in
flat ``array`` columns instead of one :class:`MemoryAccess` NamedTuple
per access, which cuts workload memory by ~5x and lets the simulation
fast path (:mod:`repro.smp.fastpath`) iterate machine integers without
per-access tuple allocation. Element access still yields
:class:`MemoryAccess`, so existing consumers are unaffected.
"""

from __future__ import annotations

from array import array
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from ..errors import TraceError


class MemoryAccess(NamedTuple):
    is_write: bool
    address: int
    gap: int


class ColumnarTrace(Sequence):
    """One CPU's access trace stored as three parallel columns.

    Columns are ``array('b')`` for the write flags and ``array('q')``
    for addresses and gaps; appends go straight into the columns and
    reads materialize :class:`MemoryAccess` tuples on demand.
    """

    __slots__ = ("_is_write", "_addresses", "_gaps")

    def __init__(self, is_write=None, addresses=None, gaps=None):
        self._is_write = array("b") if is_write is None else is_write
        self._addresses = array("q") if addresses is None else addresses
        self._gaps = array("q") if gaps is None else gaps
        if not (len(self._is_write) == len(self._addresses)
                == len(self._gaps)):
            raise TraceError("trace columns must have equal lengths")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_accesses(cls, accesses: Iterable) -> "ColumnarTrace":
        """Build from any iterable of (is_write, address, gap) records."""
        trace = cls()
        write_flags = trace._is_write.append
        addresses = trace._addresses.append
        gaps = trace._gaps.append
        for is_write, address, gap in accesses:
            write_flags(1 if is_write else 0)
            addresses(address)
            gaps(gap)
        return trace

    def append(self, is_write: bool, address: int, gap: int) -> None:
        self._is_write.append(1 if is_write else 0)
        self._addresses.append(address)
        self._gaps.append(gap)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._addresses)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnarTrace(self._is_write[index],
                                 self._addresses[index],
                                 self._gaps[index])
        return MemoryAccess(bool(self._is_write[index]),
                            self._addresses[index], self._gaps[index])

    def __iter__(self) -> Iterator[MemoryAccess]:
        for is_write, address, gap in zip(self._is_write,
                                          self._addresses, self._gaps):
            yield MemoryAccess(bool(is_write), address, gap)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarTrace):
            return (self._is_write == other._is_write
                    and self._addresses == other._addresses
                    and self._gaps == other._gaps)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarTrace({len(self)} accesses)"

    # -- columnar views ----------------------------------------------------

    def columns(self) -> Tuple[array, array, array]:
        """The raw (is_write, addresses, gaps) columns; do not resize."""
        return self._is_write, self._addresses, self._gaps

    def relocated(self, offset: int) -> "ColumnarTrace":
        """A copy with every address shifted by ``offset``."""
        return ColumnarTrace(self._is_write[:],
                             array("q", (address + offset
                                         for address in self._addresses)),
                             self._gaps[:])

    # -- validation --------------------------------------------------------

    def validate(self, cpu_id: int) -> None:
        """Raise on negative addresses/gaps (C-speed column scans)."""
        if not self._addresses:
            return
        if min(self._addresses) < 0:
            raise TraceError(f"negative address in cpu {cpu_id} trace")
        if min(self._gaps) < 0:
            raise TraceError(f"negative gap in cpu {cpu_id} trace")


@dataclass
class Workload:
    """Named per-CPU access traces plus generation metadata.

    Traces are stored as :class:`ColumnarTrace`; any other sequence of
    ``(is_write, address, gap)`` records is converted once, here, so
    every engine and digest reads the same columns.

    ``validate=False`` skips the O(total-accesses) sanity scan for
    traces derived from an already-validated workload (truncation,
    relocation, programmatic copies); generators validate once at
    assembly time.
    """

    name: str
    traces: List[ColumnarTrace]
    metadata: dict = field(default_factory=dict)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True) -> None:
        if not self.traces:
            raise TraceError("workload needs at least one CPU trace")
        self.traces = [trace if isinstance(trace, ColumnarTrace)
                       else ColumnarTrace.from_accesses(trace)
                       for trace in self.traces]
        if not validate:
            return
        for cpu_id, trace in enumerate(self.traces):
            trace.validate(cpu_id)

    @property
    def num_cpus(self) -> int:
        return len(self.traces)

    @property
    def total_accesses(self) -> int:
        return sum(len(trace) for trace in self.traces)

    def accesses_for(self, cpu_id: int) -> ColumnarTrace:
        return self.traces[cpu_id]

    def iter_flat(self) -> Iterator[tuple]:
        """Yield (cpu_id, access) pairs, CPU-major (analysis helper)."""
        for cpu_id, trace in enumerate(self.traces):
            for access in trace:
                yield cpu_id, access

    def truncated(self, max_per_cpu: int) -> "Workload":
        """A shortened copy, for quick tests (skips revalidation)."""
        return Workload(self.name + f"[:{max_per_cpu}]",
                        [trace[:max_per_cpu] for trace in self.traces],
                        dict(self.metadata), validate=False)
