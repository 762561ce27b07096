"""Block-indexed tag store: the index always agrees with the ways.

``SetAssociativeCache._lines`` maps a block number to the way holding
it (in any state); every lookup, snoop, fill and hash-node probe reads
it, and only victim selection reads the per-set way lists. These tests
drive random sequences of the operations that mutate either structure
— direct inserts, fused fills, classifying accesses, lookups, snoops,
upgrades, flushes and pickle round trips — and after every step
rebuild the index from the ways and compare. A round trip must also
preserve set order, way order, LRU ticks and states exactly, because
``iter_lines()``, ``flush()``'s dirty list and every later eviction
follow them.
"""

import pickle
import pickletools
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mesi import MesiState
from repro.coherence.protocol import MesiProtocol
from repro.config import CacheConfig, e6000_config
from repro.errors import CoherenceError
from repro.sim.checkpoint import capture, restore
from repro.sim.sweep import SweepPoint, build_system
from repro.smp.fastpath import _run_loop, new_counters
from repro.workloads.registry import generate

L1 = CacheConfig(size_bytes=16 * 2 * 32, associativity=2, line_bytes=32,
                 hit_latency=2)
L2 = CacheConfig(size_bytes=4 * 2 * 64, associativity=2, line_bytes=64,
                 hit_latency=10)
VALID = [MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED,
         MesiState.OWNED]
#: 16 L2 lines over 4 two-way sets, 32 L1 lines over 16 two-way sets
#: (the L1 set period is twice the L2's, as in the modelled machines):
#: most fills evict, and an evicted L2 line often still has L1 lines
#: for the inclusion sweep to invalidate
ADDRESSES = st.integers(min_value=0, max_value=16 * 64 - 1)


def machine():
    """Two hierarchies under one MESI coordinator."""
    hierarchies = [CacheHierarchy(cpu, L1, L2) for cpu in range(2)]
    return hierarchies, MesiProtocol(hierarchies)


def rebuilt_index(cache):
    return {line.tag * cache._num_sets + index: line
            for index, ways in cache._sets.items() for line in ways}


def assert_index_consistent(cache):
    rebuilt = rebuilt_index(cache)
    assert cache._lines.keys() == rebuilt.keys()
    assert all(cache._lines[block] is line
               for block, line in rebuilt.items())
    # no block twice in the ways, no set over its associativity
    assert len(rebuilt) == sum(len(ways) for ways in cache._sets.values())
    assert all(0 < len(ways) <= cache._assoc
               for ways in cache._sets.values())


def layout(cache):
    """Everything a round trip must keep: set order, way order, tags,
    ticks and states."""
    return (cache._tick,
            [(index, [(line.tag, line.last_used, line.state)
                      for line in ways])
             for index, ways in cache._sets.items()])


#: the mutating operations appear several times so that most drawn
#: sequences fill sets past their associativity
OPERATIONS = st.lists(st.tuples(
    st.sampled_from(["insert_l1", "insert_l2", "fill", "access"] * 3
                    + ["lookup", "bus_read", "bus_read_exclusive",
                       "snoop_read_exclusive", "upgrade", "invalidate",
                       "flush", "round_trip"]),
    st.integers(min_value=0, max_value=1),
    ADDRESSES,
    st.sampled_from(VALID),
    st.booleans()), min_size=1, max_size=80)


def step(hierarchies, protocol, op, cpu, address, state, flag):
    hierarchy = hierarchies[cpu]
    line = address & ~63
    if op == "insert_l1":
        hierarchy.l1.insert_line(address & ~31, state)
    elif op == "insert_l2":
        hierarchy.l2.insert_line(line, state)
    elif op == "fill":
        hierarchy.fill(line, state)
    elif op == "access":
        hierarchy.access(flag, address)
    elif op == "lookup":
        hierarchy.l2.lookup_line(line, touch=flag)
        hierarchy.l1.lookup(address, touch=flag)
    elif op == "bus_read":
        protocol.bus_read(cpu, line)
    elif op == "bus_read_exclusive":
        protocol.bus_read_exclusive(cpu, line)
    elif op == "snoop_read_exclusive":
        hierarchy.snoop_read_exclusive(line)
    elif op == "upgrade":
        try:
            hierarchy.upgrade(line)
        except CoherenceError:
            pass  # non-resident: nothing changed
    elif op == "invalidate":
        hierarchy.l1.invalidate_line(address & ~31)
    elif op == "flush":
        hierarchy.flush()
    elif op == "round_trip":
        before = [(layout(h.l1), layout(h.l2), list(h.l2.iter_lines()))
                  for h in hierarchies]
        hierarchies, protocol = pickle.loads(
            pickle.dumps((hierarchies, protocol), protocol=4))
        after = [(layout(h.l1), layout(h.l2), list(h.l2.iter_lines()))
                 for h in hierarchies]
        assert [(l1, l2) for l1, l2, _ in after] \
            == [(l1, l2) for l1, l2, _ in before]
        assert [[(address, line.state) for address, line in lines]
                for _, _, lines in after] \
            == [[(address, line.state) for address, line in lines]
                for _, _, lines in before]
    return hierarchies, protocol


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["insert"] * 4 + ["lookup", "invalidate",
                                      "round_trip", "flush"]),
    st.integers(min_value=0, max_value=7), st.sampled_from(VALID),
    st.booleans()), min_size=1, max_size=60))
def test_one_cache_index_matches_ways(operations):
    """One two-set, two-way cache over eight lines: almost every
    insert evicts or revives."""
    cache = SetAssociativeCache(CacheConfig(
        size_bytes=2 * 2 * 64, associativity=2, line_bytes=64,
        hit_latency=1))
    for op, line, state, flag in operations:
        address = line * 64
        if op == "insert":
            cache.insert_line(address, state)
        elif op == "lookup":
            cache.lookup_line(address, touch=flag)
        elif op == "invalidate":
            cache.invalidate_line(address)
        elif op == "flush":
            cache.flush()
        else:
            before = layout(cache)
            cache = pickle.loads(pickle.dumps(cache, protocol=4))
            assert layout(cache) == before
        assert_index_consistent(cache)


@settings(max_examples=150, deadline=None)
@given(OPERATIONS)
def test_index_matches_ways_after_every_step(operations):
    hierarchies, protocol = machine()
    for operation in operations:
        hierarchies, protocol = step(hierarchies, protocol, *operation)
        for hierarchy in hierarchies:
            assert_index_consistent(hierarchy.l1)
            assert_index_consistent(hierarchy.l2)
        # the coordinator always probes the live caches
        for requester, remotes in enumerate(protocol._remote_lists):
            assert [entry[2] for entry in remotes] \
                == [h.l2 for cpu, h in enumerate(hierarchies)
                    if cpu != requester]
            assert all(entry[2] is hierarchies[entry[0]].l2
                       for entry in remotes)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fill", "access", "snoop"]),
                          ADDRESSES, st.sampled_from(VALID),
                          st.booleans()),
                min_size=1, max_size=80))
def test_fused_fill_equals_its_definition(operations):
    """``CacheHierarchy.fill`` is ``l2.insert_line``, the inclusion
    sweep over a valid L2 victim and ``l1.insert_line(SHARED)`` fused:
    a twin hierarchy running that composition stays identical —
    victims, ways, ticks and states — under fills, accesses and
    invalidating snoops."""
    fused = CacheHierarchy(0, L1, L2)
    composed = CacheHierarchy(0, L1, L2)
    for op, address, state, flag in operations:
        line = address & ~63
        if op == "fill":
            victim = composed.l2.insert_line(line, state)
            if victim is not None:
                composed._enforce_inclusion(victim[0])
            composed.l1.insert_line(line, MesiState.SHARED)
            assert fused.fill(line, state) == victim
        elif op == "access":
            assert fused.access(flag, address).kind \
                is composed.access(flag, address).kind
        else:
            assert fused.snoop_read_exclusive(line) \
                is composed.snoop_read_exclusive(line)
        assert layout(fused.l1) == layout(composed.l1)
        assert layout(fused.l2) == layout(composed.l2)
        assert_index_consistent(fused.l1)
        assert_index_consistent(fused.l2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ADDRESSES, st.sampled_from(VALID)),
                min_size=1, max_size=40))
def test_round_trip_keeps_flush_order(fills):
    """``flush()``'s dirty list — the write-back order — and the next
    evictions are the same before and after a round trip."""
    original = CacheHierarchy(0, L1, L2)
    for address, state in fills:
        original.fill(address & ~63, state)
    copy = pickle.loads(pickle.dumps(original, protocol=4))
    probe = [address & ~63 for address, _ in fills[::-1]]
    assert [original.fill(line, MesiState.SHARED) for line in probe] \
        == [copy.fill(line, MesiState.SHARED) for line in probe]
    assert layout(copy.l2) == layout(original.l2)
    assert copy.flush() == original.flush()


def test_pickled_form_is_compact_columns():
    """The index and the ``CacheLine`` records are never pickled: the
    state is blocks and ticks as ``array('q')`` plus one byte per
    state, in set/way order."""
    cache = SetAssociativeCache(L2)
    # blocks 5 and 9 share set 1, block 2 sits in set 2
    for block, state in [(5, MesiState.MODIFIED), (2, MesiState.SHARED),
                         (9, MesiState.EXCLUSIVE)]:
        cache.insert_line(block * 64, state)
    cache.invalidate_line(9 * 64)
    config, tick, blocks, ticks, states = cache.__getstate__()
    assert config is L2 and tick == 3
    assert isinstance(blocks, array) and blocks.typecode == "q"
    assert isinstance(ticks, array) and ticks.typecode == "q"
    assert list(blocks) == [5, 9, 2] and list(ticks) == [1, 3, 2]
    assert isinstance(states, bytes) and len(states) == 3
    blob = pickle.dumps(cache, protocol=4)
    names = {arg for op, arg, _ in pickletools.genops(blob)
             if op.name in ("GLOBAL", "STACK_GLOBAL", "SHORT_BINUNICODE",
                            "BINUNICODE")}
    assert "CacheLine" not in names and "_lines" not in names
    copy = pickle.loads(blob)
    assert layout(copy) == layout(cache)
    assert copy.lookup_line(9 * 64, touch=False) is None
    assert copy._lines[9].state is MesiState.INVALID


def test_restored_machine_protocol_probes_see_the_restored_index():
    """After a snapshot restore the MESI coordinator's remote lists
    hold the restored caches, so a snoop downgrades the very line
    object a restored L2 lookup returns."""
    config = e6000_config(num_processors=2, l2_mb=1)
    target = SweepPoint("radix", config, scale=0.02, seed=0)
    workload = generate("radix", 2, scale=0.02, seed=0)
    system = build_system(config)
    clocks, cursors, counters = [0, 0], [0, 0], new_counters(2)
    _run_loop(system, workload, clocks, cursors, counters,
              stop_accesses=3000)
    snapshot = capture(system, workload, target, clocks, cursors,
                       counters, tag="t")
    restored = restore(snapshot)[0]
    for remotes in restored.protocol._remote_lists:
        for cpu, hierarchy, l2 in remotes:
            assert hierarchy is restored.hierarchies[cpu]
            assert l2 is restored.hierarchies[cpu].l2
    # a line only CPU 1 holds, exclusively or dirty
    only_one = [address for address, line in
                restored.hierarchies[1].l2.iter_lines()
                if line.state in (MesiState.MODIFIED, MesiState.EXCLUSIVE)]
    assert only_one
    address = only_one[0]
    line = restored.hierarchies[1].l2.lookup_line(address, touch=False)
    outcome = restored.protocol.bus_read(0, address)
    assert outcome.supplier_cpu == 1
    assert line.state is MesiState.SHARED
    l2 = restored.hierarchies[1].l2
    assert l2._lines[address >> l2._offset_bits] is line


def assert_ticks_distinct(system):
    """Every way of each cache holds its own LRU tick, at most the
    cache's clock: the victim then never depends on way order."""
    for hierarchy in system.hierarchies:
        for cache in (hierarchy.l1, hierarchy.l2):
            ticks = [line.last_used for ways in cache._sets.values()
                     for line in ways]
            assert len(set(ticks)) == len(ticks)
            assert all(0 < tick <= cache._tick for tick in ticks)
            assert_index_consistent(cache)


def test_lru_ticks_stay_distinct_after_a_run_and_a_restore():
    """A miss-heavy run retags its victims' ways in place; the ticks
    stay unique per cache through the run, a snapshot round trip and
    the restored machine's remainder of the run."""
    config = e6000_config(num_processors=2, l2_mb=1).with_l2_size(64 * 1024)
    target = SweepPoint("ocean", config, scale=0.02, seed=0)
    workload = generate("ocean", 2, scale=0.02, seed=0)
    system = build_system(config)
    clocks, cursors, counters = [0, 0], [0, 0], new_counters(2)
    _run_loop(system, workload, clocks, cursors, counters,
              stop_accesses=12000)
    assert all(len(ways) == cache._assoc
               for hierarchy in system.hierarchies
               for cache in (hierarchy.l1, hierarchy.l2)
               for ways in cache._sets.values())
    assert_ticks_distinct(system)
    snapshot = capture(system, workload, target, clocks, cursors,
                       counters, tag="t")
    restored, clocks, cursors, counters = restore(snapshot)
    assert_ticks_distinct(restored)
    assert not _run_loop(restored, workload, clocks, cursors, counters)
    assert_ticks_distinct(restored)
