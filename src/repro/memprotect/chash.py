"""CHash [7]: hash-tree verification with L2 caching of tree nodes.

The key performance idea of Gassend et al.: a tree node that resides
in the (trusted, on-chip) L2 cache needs no further verification —
"Once a node resides in L2, it is considered to be secure". A
verification walk therefore climbs only until it hits a cached node or
the on-chip root.

:class:`CachedHashTreeVerifier` wraps the functional
:class:`~repro.memprotect.merkle.MerkleTree` with a node cache and
reports how many node *fetches* (the quantity that becomes bus traffic
and L2 pollution) each operation cost — the statistics behind
Figure 10's 12% slowdown / 58% traffic numbers.

The climb works directly on the tree's flat digest list (DESIGN.md
§6e): cache keys are flat node positions (one int, not a (level,
index) tuple), and child groups are gathered by slice arithmetic.

Statistics follow the repo-wide flush-on-read contract: the running
totals (``node_fetches``, ``cache_hits``, ``verifications``,
``evictions``) are plain attributes bumped on the hot path; when a
:class:`~repro.sim.stats.StatsRegistry` is attached, a registered
flusher materializes them under the ``chash.*`` namespace on any
registry read. Evictions land in that one namespace no matter where
they happen — capacity pressure inside ``verified_read``/
``verified_write``, an explicit ``evict_node``, or a ``flush_cache``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..errors import ConfigError, IntegrityViolation
from ..sim.stats import StatsRegistry
from .merkle import MerkleTree


class CachedHashTreeVerifier:
    """A Merkle tree fronted by an LRU cache of trusted nodes.

    Cache keys are flat node positions; the root is implicitly always
    trusted (held in an on-chip register).
    """

    def __init__(self, tree: MerkleTree, cache_nodes: int = 256,
                 stats: Optional[StatsRegistry] = None):
        if cache_nodes < 1:
            raise ConfigError("node cache must hold at least one node")
        self.tree = tree
        self.cache_nodes = cache_nodes
        # Flat position -> True, in LRU order (oldest first); int keys
        # hash faster than the old (level, index) tuples.
        self._cache: "OrderedDict[int, bool]" = OrderedDict()
        self.node_fetches = 0
        self.cache_hits = 0
        self.verifications = 0
        self.evictions = 0
        # Registry snapshot of each counter at the last flush: the
        # flusher adds only the delta, so the attributes stay plain
        # running totals for direct readers.
        self._flushed = (0, 0, 0, 0)
        self.stats = stats
        if stats is not None:
            stats.register_flusher(self._flush_stats)

    def _flush_stats(self) -> None:
        fetched, hits, verifs, evicts = self._flushed
        add = self.stats.add
        if self.node_fetches != fetched:
            add("chash.node_fetches", self.node_fetches - fetched)
        if self.cache_hits != hits:
            add("chash.cache_hits", self.cache_hits - hits)
        if self.verifications != verifs:
            add("chash.verifications", self.verifications - verifs)
        if self.evictions != evicts:
            add("chash.evictions", self.evictions - evicts)
        self._flushed = (self.node_fetches, self.cache_hits,
                         self.verifications, self.evictions)

    # -- cache plumbing -----------------------------------------------------

    def _install_pos(self, pos: int) -> None:
        cache = self._cache
        cache[pos] = True
        cache.move_to_end(pos)
        if len(cache) > self.cache_nodes:
            cache.popitem(last=False)
            self.evictions += 1

    def evict_node(self, level: int, index: int) -> None:
        """Model L2 pressure evicting a tree node (tests use this)."""
        pos = self.tree._offsets[level] + index
        if self._cache.pop(pos, None) is not None:
            self.evictions += 1

    def flush_cache(self) -> None:
        self.evictions += len(self._cache)
        self._cache.clear()

    # -- verified operations ---------------------------------------------------

    def verified_read(self, address: int) -> Tuple[bytes, int]:
        """Read a line, verifying up to the first trusted node.

        Returns (plaintext-as-stored, node fetches incurred). Raises
        :class:`IntegrityViolation` on any mismatch along the climb.
        """
        self.verifications += 1
        tree = self.tree
        index = tree._line_index(address)
        digest = tree._leaf_digest(index)
        fetches = 0
        level = 0
        height = len(tree._counts) - 1
        offsets = tree._offsets
        counts = tree._counts
        nodes = tree._nodes
        dirty = tree._dirty
        arity = tree.arity
        cache = self._cache
        while True:
            pos = offsets[level] + index
            if dirty[pos]:
                tree._recompute(level, index)
            if digest != nodes[pos]:
                raise IntegrityViolation(
                    f"digest mismatch at level {level} verifying "
                    f"{address:#x}")
            if level == height:
                break  # reached the on-chip root: fully verified
            if pos in cache:
                cache.move_to_end(pos)
                self.cache_hits += 1
                break  # trusted ancestor already on chip
            # Fetch this node's parent from memory and keep climbing.
            self._install_pos(pos)
            fetches += 1
            parent_index = index // arity
            begin = parent_index * arity
            end = min(begin + arity, counts[level])
            child_off = offsets[level]
            if level >= 1:
                for child in range(begin, end):
                    if dirty[child_off + child]:
                        tree._recompute(level, child)
            digest = tree._node_digest(
                b"".join(nodes[child_off + begin:child_off + end]))
            level += 1
            index = parent_index
        self.node_fetches += fetches
        return tree.memory.read_line(address), fetches

    def verified_write(self, address: int, data: bytes) -> int:
        """Write a line and update the hash chain; returns fetches."""
        _, fetches = self.verified_read(address)  # authenticate first
        self.tree.memory.write_line(address, data)
        self.tree.update_line(address)
        return fetches
