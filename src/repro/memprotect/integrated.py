"""The cache-to-memory protection timing layer (section 6, Figure 10).

``MemProtectLayer`` attaches to an :class:`~repro.smp.system.SmpSystem`
and is consulted on every memory-supplied line fetch and every dirty
write-back. It models the two section-6 mechanisms and their SMP
coherence obligations:

**Fast memory encryption** (section 6.1). Pads are generated in
parallel with the memory access, so decryption adds one XOR cycle; the
SMP cost is pad *coherence*: a write-back bumps the line's pad
sequence, sending a type-"01" pad-invalidate (write-invalidate
protocol) and forcing later readers on other processors to issue a
type-"10" pad request — extra bus transactions, not extra stalls
(the pad request overlaps the 180-cycle line fetch).

**Hash-tree integrity** (section 6.2, CHash [7]). Tree nodes live at
synthetic addresses and are cached *in the regular L2* — which is
exactly how the paper gets its L2 pollution. Verifying a fetched line
climbs to the nearest L2-resident ancestor, issuing real coherence
transactions (so node fetches can themselves be supplied
cache-to-cache, ride the SENSS masks, pollute the L2 and evict dirty
victims). Updating after a write-back *writes* the parent node, whose
own eventual eviction propagates the update to the grandparent — the
cascading procedure of section 6.2. Under ``lazy_verification``
(LHash-style ablation) the tree machinery is bypassed for a
throughput-bound multiset-hash update.
"""

from __future__ import annotations

from ..bus.transaction import TransactionType
from ..cache.mesi import MesiState
from ..config import SystemConfig
from ..crypto.engine import CryptoEngineModel
from ..errors import SimulationError
from .pad_cache import PadCache, PadCoherenceDirectory

# Synthetic address region for hash-tree nodes: far above any workload
# data, one stride per tree level so node lines never collide with data
# lines or each other.
HASH_BASE = 1 << 44
LEVEL_STRIDE = 1 << 38
DATA_SPAN = 1 << 36  # covered data address space

_PAD_REQUEST = TransactionType.PAD_REQUEST
_PAD_INVALIDATE = TransactionType.PAD_INVALIDATE
_INVALID = MesiState.INVALID
_MODIFIED = MesiState.MODIFIED
_SHARED = MesiState.SHARED
_UNSET = object()  # parent-table sentinel (None is a valid parent)


class MemProtectLayer:
    """Memory encryption + integrity timing hooks for the simulator."""

    def __init__(self, config: SystemConfig):
        memprotect = config.memprotect
        if not (memprotect.encryption_enabled
                or memprotect.integrity_enabled):
            raise SimulationError(
                "MemProtectLayer requires at least one mechanism enabled")
        self.config = config
        self.encryption = memprotect.encryption_enabled
        self.integrity = memprotect.integrity_enabled
        self.lazy = memprotect.lazy_verification
        self.direct_encryption = memprotect.encryption_mode == "direct"
        self.line_bytes = config.l2.line_bytes
        self.arity = max(2, self.line_bytes // 16)  # digests per node line
        self.directory = PadCoherenceDirectory(config.num_processors,
                                               memprotect.pad_protocol)
        self._pad_invalidate_protocol = (
            memprotect.pad_protocol == "write-invalidate")
        # Per-processor sequence-number/pad caches (section 7.7: the
        # experiments use a perfect SNC; pad_cache_entries=None keeps
        # that default, a finite size models the real structure).
        self.pad_caches = [PadCache(memprotect.pad_cache_entries)
                           for _ in range(config.num_processors)]
        self.aes_engine = CryptoEngineModel.aes_from_config(
            config.crypto, config.cpu_ghz)
        self.hash_engine = CryptoEngineModel.hash_from_config(
            config.crypto, config.cpu_ghz, self.line_bytes)
        self.system = None
        # Optional observability probe (repro.obs.Tracer): notified of
        # pad-cache lookups and hash-tree verifies/updates.
        self.observer = None
        # Optional fault-injection probe (repro.faults.FaultInjector):
        # consulted on pad-cache consultations, pad write-back
        # refreshes, and hash-tree verifies. May return extra
        # critical-path cycles (a detected fault's recovery penalty).
        self.fault_hook = None
        self._writeback_depth = 0
        self._max_writeback_depth = 8
        # Memoized parent-node addresses: every verify climb and every
        # hash update starts with the same classify/parent arithmetic
        # for a working set of line addresses, so the result is
        # remembered per address (None = parent is on-chip).
        self._parent_table = {}
        # Levels whose node count is small enough to pin on chip; the
        # root always is. leaves = DATA_SPAN / line_bytes.
        leaves = DATA_SPAN // self.line_bytes
        level, nodes = 0, leaves
        while nodes > 16:
            nodes = -(-nodes // self.arity)
            level += 1
        self.internal_level = level
        # Deferred stats (drained into the system registry on read).
        # ``direct_decrypt_stalls`` tracks events separately from the
        # stalled-cycle amount: the reference semantics materialize the
        # counter even on a zero-cycle stall.
        self._p_pad_requests = 0
        self._p_direct_stall_cycles = 0
        self._p_direct_stall_events = 0
        self._p_decryptions = 0
        self._p_pad_cache_misses = 0
        self._p_pad_cache_hits = 0
        self._p_lazy_hash_updates = 0
        self._p_root_verifications = 0
        self._p_node_cache_hits = 0
        self._p_hash_fetches = 0
        self._p_encryptions = 0
        self._p_pad_invalidates = 0
        self._p_pad_updates = 0
        self._p_root_updates = 0
        self._p_clipped_updates = 0
        self._p_hash_updates = 0

    # -- attachment -----------------------------------------------------------

    def attach(self, system) -> None:
        self.system = system
        system.attach_memprotect(self)
        system.stats.register_flusher(self._flush_stats)

    def _flush_stats(self) -> None:
        add = self.system.stats.add
        if self._p_pad_requests:
            add("memprotect.pad_requests", self._p_pad_requests)
            self._p_pad_requests = 0
        if self._p_direct_stall_events:
            add("memprotect.direct_decrypt_stalls",
                self._p_direct_stall_cycles)
            self._p_direct_stall_cycles = 0
            self._p_direct_stall_events = 0
        if self._p_decryptions:
            add("memprotect.decryptions", self._p_decryptions)
            self._p_decryptions = 0
        if self._p_pad_cache_misses:
            add("memprotect.pad_cache_misses", self._p_pad_cache_misses)
            self._p_pad_cache_misses = 0
        if self._p_pad_cache_hits:
            add("memprotect.pad_cache_hits", self._p_pad_cache_hits)
            self._p_pad_cache_hits = 0
        if self._p_lazy_hash_updates:
            add("memprotect.lazy_hash_updates", self._p_lazy_hash_updates)
            self._p_lazy_hash_updates = 0
        if self._p_root_verifications:
            add("memprotect.root_verifications",
                self._p_root_verifications)
            self._p_root_verifications = 0
        if self._p_node_cache_hits:
            add("memprotect.node_cache_hits", self._p_node_cache_hits)
            self._p_node_cache_hits = 0
        if self._p_hash_fetches:
            add("memprotect.hash_fetches", self._p_hash_fetches)
            self._p_hash_fetches = 0
        if self._p_encryptions:
            add("memprotect.encryptions", self._p_encryptions)
            self._p_encryptions = 0
        if self._p_pad_invalidates:
            add("memprotect.pad_invalidates", self._p_pad_invalidates)
            self._p_pad_invalidates = 0
        if self._p_pad_updates:
            add("memprotect.pad_updates", self._p_pad_updates)
            self._p_pad_updates = 0
        if self._p_root_updates:
            add("memprotect.root_updates", self._p_root_updates)
            self._p_root_updates = 0
        if self._p_clipped_updates:
            add("memprotect.clipped_updates", self._p_clipped_updates)
            self._p_clipped_updates = 0
        if self._p_hash_updates:
            add("memprotect.hash_updates", self._p_hash_updates)
            self._p_hash_updates = 0

    # -- tree geometry -----------------------------------------------------------

    def node_address(self, level: int, index: int) -> int:
        return (HASH_BASE + level * LEVEL_STRIDE
                + index * self.line_bytes)

    def classify(self, address: int):
        """Return (level, index): level 0 = data line."""
        if address < HASH_BASE:
            return 0, address // self.line_bytes
        offset = address - HASH_BASE
        level = offset // LEVEL_STRIDE  # node_address stores level >= 1
        index = (offset % LEVEL_STRIDE) // self.line_bytes
        return level, index

    def parent_of(self, address: int):
        """Parent node address, or None when the parent is on-chip."""
        parent = self._parent_table.get(address, _UNSET)
        if parent is _UNSET:
            level, index = self.classify(address)
            parent_level = level + 1
            if parent_level > self.internal_level:
                parent = None
            else:
                parent = self.node_address(parent_level,
                                           index // self.arity)
            self._parent_table[address] = parent
        return parent

    # -- simulator callbacks -------------------------------------------------

    def on_memory_fetch(self, cpu: int, line_address: int,
                        clock: int) -> int:
        """A line arrived from memory; returns extra critical-path cycles."""
        system = self.system
        if system is None:
            raise SimulationError("layer not attached to a system")
        extra = 0
        if self.encryption:
            if self.directory.on_fetch(cpu, line_address):
                # Type-"10" pad request; overlaps the line fetch
                # itself, so it costs bus occupancy/traffic, not stall.
                # Pad messages carry no group tag (group_id 0) and are
                # safe to put on the system's scratch transaction: the
                # enclosing miss has already read its completion cycle.
                transaction = system._next_transaction(
                    _PAD_REQUEST, line_address, cpu, 0, False)
                system.bus.issue(transaction, clock, data_bytes=16)
                self._p_pad_requests += 1
            if self.direct_encryption:
                # Naive baseline: the line cannot be used until the
                # serial AES decryption finishes (section 2.1's ~17%
                # regime). Charged per AES block in the line.
                blocks = self.line_bytes // 16
                ready = clock
                for _ in range(blocks):
                    # Pipelined unit: blocks issue back-to-back at the
                    # issue interval; the line is usable when the last
                    # block's decryption completes.
                    ready = max(ready, self.aes_engine.issue(clock))
                extra += ready - clock
                self._p_direct_stall_cycles += ready - clock
                self._p_direct_stall_events += 1
                self._p_decryptions += 1
                if self.integrity:
                    extra += (self._verify_climb(cpu, line_address,
                                                 clock)
                              if not self.lazy else 0)
                return extra
            pad_cache = self.pad_caches[cpu]
            if pad_cache.lookup(line_address) is None:
                # SNC miss: the pad must be regenerated. Generation
                # overlaps the 180-cycle line fetch (the whole point of
                # pad-based encryption), so only AES queueing shows up
                # on the critical path; a hit skips even that.
                aes_engine = self.aes_engine
                ready = aes_engine.issue(clock)
                extra += max(0, ready - clock - aes_engine.latency)
                pad_cache.install(line_address, 0)
                self._p_pad_cache_misses += 1
                if self.observer is not None:
                    self.observer.on_pad_cache(cpu, line_address, clock,
                                               False)
                hit = False
            else:
                self._p_pad_cache_hits += 1
                if self.observer is not None:
                    self.observer.on_pad_cache(cpu, line_address, clock,
                                               True)
                hit = True
            if self.fault_hook is not None:
                extra += self.fault_hook.on_pad_event(
                    cpu, line_address, clock, hit)
            extra += 1  # the OTP XOR
            self._p_decryptions += 1
        if self.integrity:
            if self.lazy:
                # Multiset-hash update: throughput-bound, off the
                # critical path unless the hash unit back-pressures.
                hash_engine = self.hash_engine
                ready = hash_engine.issue(clock)
                extra += max(0, ready - clock - hash_engine.latency)
                self._p_lazy_hash_updates += 1
            else:
                extra += self._verify_climb(cpu, line_address, clock)
        return extra

    def _verify_climb(self, cpu: int, address: int, clock: int) -> int:
        """CHash verification: fetch the parent unless already trusted."""
        hash_engine = self.hash_engine
        ready = hash_engine.issue(clock)
        extra = max(0, ready - clock - hash_engine.latency)
        if self.fault_hook is not None:
            extra += self.fault_hook.on_verify_event(cpu, address, clock)
        parent = self._parent_table.get(address, _UNSET)
        if parent is _UNSET:
            parent = self.parent_of(address)
        observer = self.observer
        if parent is None:
            self._p_root_verifications += 1
            if observer is not None:
                observer.on_hash_verify(cpu, address, clock, 0)
            return extra
        # Probe the local L2's block index for the parent node in
        # place (``contains``: touch=False — a trust check, not an
        # access, so it never perturbs LRU order).
        hierarchy = self.system.hierarchies[cpu]
        l2 = hierarchy.l2
        line = l2._lines.get(parent >> l2._offset_bits)
        if line is not None and line.state is not _INVALID:
            self._p_node_cache_hits += 1
            if observer is not None:
                observer.on_hash_verify(cpu, address, clock, 1)
            return extra
        self._p_hash_fetches += 1
        if observer is not None:
            # Reported before the posted fetch so the verify event
            # precedes the nested miss it triggers.
            observer.on_hash_verify(cpu, address, clock, 2)
        # Fetch the parent through the normal coherent read path; its
        # own verification recurses via on_memory_fetch when it comes
        # from memory, and stops early when another cache supplies it.
        # The fetch is *posted*: execution continues speculatively and
        # retires once verification completes in the background ([7]'s
        # overlap; the paper attributes the CHash penalty mainly to
        # "the polluted L2 cache ... and the increased bus contention",
        # both of which this posted fetch still produces).
        # The L2 probe above just missed and node addresses are
        # line-aligned, so the generic access classification is skipped:
        # this IS the miss path (counter bumped as access() would).
        hierarchy._pending_l2_miss += 1
        self.system._execute_miss(cpu, clock, False, parent)
        return extra

    def on_writeback(self, cpu: int, line_address: int,
                     clock: int) -> None:
        """A dirty line left the chip; propagate pad + hash obligations."""
        system = self.system
        if system is None:
            raise SimulationError("layer not attached to a system")
        if self.encryption:
            invalidate = self._pad_invalidate_protocol
            affected = self.directory.on_writeback(cpu, line_address)
            self.pad_caches[cpu].install(line_address, 0)
            for other in affected:
                if invalidate:
                    self.pad_caches[other].invalidate(line_address)
                else:
                    self.pad_caches[other].install(line_address, 0)
            self._p_encryptions += 1
            if self.fault_hook is not None:
                self.fault_hook.on_pad_writeback(cpu, line_address,
                                                 affected)
            if affected:
                if invalidate:
                    transaction = system._next_transaction(
                        _PAD_INVALIDATE, line_address, cpu, 0, False)
                    system.bus.issue(transaction, clock, data_bytes=0)
                    self._p_pad_invalidates += 1
                else:
                    transaction = system._next_transaction(
                        _PAD_REQUEST, line_address, cpu, 0, True)
                    system.bus.issue(transaction, clock, data_bytes=16)
                    self._p_pad_updates += 1
        if self.integrity and not self.lazy:
            self._update_parent_hash(cpu, line_address, clock)
        elif self.integrity:
            self.hash_engine.issue(clock)
            self._p_lazy_hash_updates += 1

    def _update_parent_hash(self, cpu: int, address: int,
                            clock: int) -> None:
        """Write the parent node (its stored child digest changed)."""
        parent = self._parent_table.get(address, _UNSET)
        if parent is _UNSET:
            parent = self.parent_of(address)
        observer = self.observer
        if parent is None:
            self._p_root_updates += 1
            if observer is not None:
                observer.on_hash_update(cpu, address, clock, 0)
            return
        if self._writeback_depth >= self._max_writeback_depth:
            # Deep eviction cascades are batched by real hardware; cap
            # the model's recursion and account the clipped update.
            self._p_clipped_updates += 1
            if observer is not None:
                observer.on_hash_update(cpu, address, clock, 2)
            return
        self._writeback_depth += 1
        try:
            self._node_write(cpu, clock, parent)
            self._p_hash_updates += 1
            if observer is not None:
                observer.on_hash_update(cpu, address, clock, 1)
        finally:
            self._writeback_depth -= 1

    def _node_write(self, cpu: int, clock: int, parent: int) -> None:
        """One store to a (line-aligned) hash-tree node.

        ``CacheHierarchy.access`` fused in place for the node-update
        path: same classification, LRU touches, counter bumps and
        state transitions, minus the AccessResult object and the call
        layers (the hit latency is irrelevant — node updates are
        posted, so the reference path discarded the returned clock).
        """
        system = self.system
        hierarchy = system.hierarchies[cpu]
        l2 = hierarchy.l2
        entry = l2._lines.get(parent >> l2._offset_bits)
        if entry is None or entry.state is _INVALID:
            hierarchy._pending_l2_miss += 1
            system._execute_miss(cpu, clock, True, parent)
            return
        # L2 hit: touch LRU first (access() looks up with touch=True
        # before checking write permission).
        l2._tick += 1
        entry.last_used = l2._tick
        if not entry.state.can_write:
            hierarchy._pending_upgrade += 1
            system._execute_upgrade(cpu, clock, parent)
            return
        entry.state = _MODIFIED  # includes the silent E->M upgrade
        if hierarchy.l1.lookup(parent) is not None:
            hierarchy._pending_l1_hit += 1
            return
        # L1 refill from L2 (no bus traffic; inclusion preserved).
        hierarchy.l1.insert(parent, _SHARED)
        hierarchy._pending_l2_hit += 1
