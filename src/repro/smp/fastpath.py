"""Merged fast execution path for :meth:`repro.smp.system.SmpSystem.run`.

The reference engine walks three layers per memory reference —
``SmpSystem._execute`` → ``CacheHierarchy.access`` →
``SetAssociativeCache.lookup`` — re-deriving the line address and
set index at every layer, consulting Enum properties for MESI validity,
and bumping a named ``StatsRegistry`` counter per access. At ~90%+ hit
rates that layering dominates wall time (profiling attributes >70% of
a run to it).

``run_fast`` collapses the *hit* path into one loop:

- a **min-heap scheduler** replaces the per-step linear scan over CPUs
  for the earliest pending request, and a CPU keeps executing without
  touching the heap while its next request still precedes the heap
  head (same order as the reference scan, including the lowest-CPU
  tie-break);
- traces are consumed as **columnar arrays** (no per-access NamedTuple);
- L1/L2 lookups are **fused**: each is one probe of the cache's
  block index (``SetAssociativeCache._lines``, keyed by
  ``address >> offset_bits``) plus an identity test against pre-bound
  MESI state objects; the set index and tag are derived only for an
  L1 refill that must evict. LRU ticks live in locals and are written
  back to the cache objects only around slow-path calls;
- per-access statistics are **plain list bumps** flushed into the
  registry once at run end.

Misses, upgrades, and everything behind them (coherence protocol, bus
arbitration, SENSS security layer, memory protection) go through the
exact reference machinery via ``SmpSystem._execute_miss`` /
``_execute_upgrade``, so security layers observe identical
transactions. The memory-protection layer's hash-node accesses use
the same two entry points from its own fused classification
(``MemProtectLayer._verify_climb`` / ``_node_write``), so nested node
fetches stay on this contract too. Results are bit-identical to the
reference engine:
same ``cycles``, same ``per_cpu_cycles``, same stats dict
(pinned by tests/smp/test_fastpath_equivalence.py against golden
pre-optimization captures).

Resumable slices (docs/checkpointing.md)
----------------------------------------

``run_fast`` is a thin wrapper over :func:`_run_loop` +
:func:`_finish_run`, which together make the engine *resumable*: all
scheduling state lives in ``(clocks, cursors)`` plus the machine
itself, so a run can be paused after an exact global access count
(``stop_accesses``) and continued later — by the same process or a
different one — with bit-identical results. The scheduler heap is
never part of the persisted state: every heap entry is exactly
``(clocks[cpu] + gap[cursors[cpu]], cpu)``, so the heap is rebuilt
from the clocks and cursors at each (re)entry, and because entries
are unique tuples under a total order, pop order — and therefore
execution order — is independent of the heap's internal array layout.

``on_first_exhaustion`` is the scale-chain seam: it fires exactly once,
the moment the first CPU consumes its last trace access (with every
local written back into the machine), which is the last instant a run
at this scale is state-identical to a run of any larger scale of the
same workload family. ``repro.sim.checkpoint`` snapshots there.

The raw hit/miss counters are *not* flushed into the
:class:`~repro.sim.stats.StatsRegistry` at a pause — an uninterrupted
run keeps them in locals until the end, so mid-run observers (recorder
stats snapshots at auth checkpoints) never see them; a pause flushing
them early would make a forked run's recording diverge from a cold
one. They travel alongside the snapshot instead and are materialized
once, in :func:`_finish_run`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from ..cache.cache import CacheLine, victim_way
from ..cache.mesi import MesiState
from ..errors import SimulationError
from .metrics import SimulationResult
from .trace import Workload, as_columns

_M = MesiState.MODIFIED
_E = MesiState.EXCLUSIVE
_S = MesiState.SHARED
_I = MesiState.INVALID


def new_counters(num_cpus: int):
    """Fresh raw per-access counters: (l1_hits, l2_hits, l2_misses,
    upgrades), one slot per CPU, flushed by :func:`_finish_run`."""
    return ([0] * num_cpus, [0] * num_cpus,
            [0] * num_cpus, [0] * num_cpus)


def _run_loop(system, workload: Workload, clocks, cursors, counters,
              stop_accesses=None, on_first_exhaustion=None) -> bool:
    """Execute ``workload`` from ``(clocks, cursors)`` onward.

    Mutates ``clocks``/``cursors``/``counters`` and the machine in
    place. Returns ``True`` when paused by ``stop_accesses`` with
    work remaining, ``False`` when every trace is exhausted. See the
    module docstring for the resume contract.
    """
    num_cpus = workload.num_cpus
    l1_hits, l2_hits, l2_misses, upgrades = counters

    # Per-CPU execution context: columnar trace plus the hot cache
    # internals, unpacked once per scheduling quantum.
    contexts = []
    for cpu in range(num_cpus):
        writes, addresses, gaps = as_columns(workload.accesses_for(cpu))
        l1 = system.hierarchies[cpu].l1
        l2 = system.hierarchies[cpu].l2
        contexts.append((
            addresses, writes, gaps, len(addresses),
            l1._lines, l1._sets, l1._offset_bits, l1._num_sets,
            l1.config.associativity, l1.config.hit_latency,
            l2._lines, l2._offset_bits, l2.config.hit_latency,
            l1, l2,
        ))

    execute_miss = system._execute_miss
    execute_upgrade = system._execute_upgrade

    # Heap of (next request cycle, cpu): the reference scheduler picks
    # the earliest pending request, lowest CPU on ties — exactly the
    # tuple ordering of this heap. Rebuilt from (clocks, cursors) so
    # resumed runs see the identical frontier.
    heap = [(clocks[cpu] + contexts[cpu][2][cursors[cpu]], cpu)
            for cpu in range(num_cpus)
            if cursors[cpu] < contexts[cpu][3]]
    heapify(heap)

    remaining = stop_accesses
    if remaining is not None and remaining <= 0:
        return bool(heap)
    fired = on_first_exhaustion is None

    while heap:
        pending, cpu = heappop(heap)
        (addr_col, write_col, gap_col, length,
         l1_lines, l1_sets, l1_shift, l1_nsets, l1_assoc, l1_latency,
         l2_lines, l2_shift, l2_latency,
         l1, l2) = contexts[cpu]
        index = cursors[cpu]
        start = index
        limit = length if remaining is None \
            else min(length, index + remaining)
        tick1 = l1._tick
        tick2 = l2._tick
        clock = clocks[cpu]

        while True:
            address = addr_col[index]

            # -- fused L2 lookup (touch) ------------------------------
            block2 = address >> l2_shift
            entry = l2_lines.get(block2)

            if entry is None or entry.state is _I:
                # MISS — reference bus/protocol/memprotect machinery.
                l2_misses[cpu] += 1
                l1._tick = tick1
                l2._tick = tick2
                clock = execute_miss(cpu, pending, write_col[index] != 0,
                                     block2 << l2_shift)
                tick1 = l1._tick
                tick2 = l2._tick
            else:
                tick2 += 1
                entry.last_used = tick2
                writable = True
                if write_col[index]:
                    state = entry.state
                    if state is _M or state is _E:
                        entry.state = _M  # silent E->M upgrade
                    else:
                        writable = False
                if not writable:
                    # S (or O) write hit: S->M upgrade transaction.
                    upgrades[cpu] += 1
                    l1._tick = tick1
                    l2._tick = tick2
                    clock = execute_upgrade(cpu, pending,
                                            block2 << l2_shift)
                    tick1 = l1._tick
                    tick2 = l2._tick
                else:
                    # -- fused L1 lookup / refill ---------------------
                    block1 = address >> l1_shift
                    line = l1_lines.get(block1)
                    tick1 += 1
                    if line is not None and line.state is not _I:
                        line.last_used = tick1
                        l1_hits[cpu] += 1
                        clock = pending + l1_latency
                    else:
                        # L1 refill from L2 (reference: l1.insert,
                        # SHARED) — revive the block's invalid way,
                        # else evict (invalid ways first, then LRU).
                        if line is not None:
                            line.state = _S
                            line.last_used = tick1
                        else:
                            index1 = block1 % l1_nsets
                            ways1 = l1_sets.get(index1)
                            if ways1 is None:
                                ways1 = l1_sets[index1] = []
                            elif len(ways1) >= l1_assoc:
                                evict = victim_way(ways1)
                                ways1.remove(evict)
                                del l1_lines[evict.tag * l1_nsets + index1]
                            line = l1_lines[block1] = CacheLine(
                                block1 // l1_nsets, _S, tick1)
                            ways1.append(line)
                        l2_hits[cpu] += 1
                        clock = pending + l2_latency

            index += 1
            if index == limit:
                cursors[cpu] = index
                clocks[cpu] = clock
                l1._tick = tick1
                l2._tick = tick2
                if index == length and not fired:
                    # First trace exhaustion: the machine state at
                    # this instant is shared with every larger run of
                    # the same family — the checkpoint seam.
                    fired = True
                    on_first_exhaustion()
                break
            entry_key = (clock + gap_col[index], cpu)
            if heap and heap[0] < entry_key:
                # Another CPU's request now precedes ours: yield.
                cursors[cpu] = index
                clocks[cpu] = clock
                l1._tick = tick1
                l2._tick = tick2
                heappush(heap, entry_key)
                break
            pending = entry_key[0]

        if remaining is not None:
            remaining -= index - start
            if remaining <= 0:
                if cursors[cpu] < length:
                    # Budget pause mid-trace: the heap is discarded
                    # and rebuilt on resume, so no push needed.
                    return True
                return bool(heap)
    return False


def _finish_run(system, workload: Workload, clocks,
                counters) -> SimulationResult:
    """Flush the raw counters, emit run-end spans, build the result."""
    num_cpus = workload.num_cpus
    l1_hits, l2_hits, l2_misses, upgrades = counters

    # Flush the raw counters into the shared registry (names and
    # totals identical to the reference per-access stats.add calls;
    # untouched counters are not materialized, matching lazy creation).
    stats = system.stats
    for cpu in range(num_cpus):
        prefix = system.hierarchies[cpu]._prefix
        if l1_hits[cpu]:
            stats.add(prefix + "l1_hit", l1_hits[cpu])
        if l2_hits[cpu]:
            stats.add(prefix + "l2_hit", l2_hits[cpu])
        if l2_misses[cpu]:
            stats.add(prefix + "l2_miss", l2_misses[cpu])
        if upgrades[cpu]:
            stats.add(prefix + "upgrade_needed", upgrades[cpu])

    # Observability: per-CPU execute spans, emitted once at run end
    # (the hot loop above never consults the observer — misses and
    # upgrades already reported through the shared slow-path hooks).
    if system._obs is not None:
        system._obs.on_run_end(workload.name, clocks)

    return SimulationResult(
        workload=workload.name,
        num_cpus=num_cpus,
        cycles=max(clocks) if clocks else 0,
        per_cpu_cycles=clocks,
        stats=stats.as_dict(),
    )


def run_fast(system, workload: Workload) -> SimulationResult:
    """Execute ``workload`` on ``system``; see module docstring."""
    if workload.num_cpus > system.config.num_processors:
        raise SimulationError(
            f"workload has {workload.num_cpus} traces but the machine "
            f"has {system.config.num_processors} processors")
    num_cpus = workload.num_cpus
    clocks = [0] * num_cpus
    cursors = [0] * num_cpus
    counters = new_counters(num_cpus)
    _run_loop(system, workload, clocks, cursors, counters)
    return _finish_run(system, workload, clocks, counters)
