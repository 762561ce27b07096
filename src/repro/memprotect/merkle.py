"""The memory integrity hash tree (section 2.2).

Leaves are hashes of memory lines (bound to their addresses), internal
nodes are hashes of their children, and the root is "the unique
signature of the entire memory", stored on-chip where only the
processor can update it. Any corruption of memory — including a replay
of an old (block, hash) pair, which defeats flat per-block MACs — makes
some recomputed node disagree with its parent.

This is the *functional* tree used by tests and examples over a
bounded address span; the timing behaviour (which node fetches hit the
L2, etc.) is modeled separately in :mod:`repro.memprotect.integrated`.

Storage layout (DESIGN.md §6e): the tree is one flat digest list.
Level ``k`` occupies ``_offsets[k] .. _offsets[k] + _counts[k]``, so a
node is addressed by pure index arithmetic — no per-level list
chasing, and the (level, index) -> flat-position map is one add.
Two throughput mechanisms sit on top:

- **Digest memoization**: leaf and node digests are remembered keyed
  by their exact input bytes, so re-hashing an unchanged line (the
  dominant verify-climb case) is one dict probe instead of an MMO/AES
  run. The memo is capacity-bounded and self-clearing.
- **Dirty-node batching**: ``update_leaf`` refreshes the leaf digest
  eagerly but only *marks* interior ancestors dirty; they are
  recomputed once — on the next read through ``node``/``root``/a
  verify climb, or in one bottom-up ``flush`` — so a burst of
  write-backs hashes each interior node once instead of once per
  write. ``update_line`` keeps the original eager spec.
"""

from __future__ import annotations

from typing import List

from ..crypto.hashes import hash_leaf, hash_node
from ..errors import ConfigError, IntegrityViolation
from ..memory.dram import MainMemory


class MerkleTree:
    """Hash tree over ``num_lines`` lines starting at ``base_address``."""

    def __init__(self, memory: MainMemory, base_address: int,
                 num_lines: int, arity: int = 4):
        if num_lines < 1:
            raise ConfigError("tree must cover at least one line")
        if arity < 2:
            raise ConfigError("tree arity must be >= 2")
        if base_address % memory.line_bytes != 0:
            raise ConfigError("base address must be line-aligned")
        self.memory = memory
        self.base_address = base_address
        self.num_lines = num_lines
        self.arity = arity
        self._line_bytes = memory.line_bytes
        # Flat geometry: nodes per level and the starting flat
        # position of each level. _counts[0] = leaves, _counts[-1] = 1.
        counts = [num_lines]
        while counts[-1] > 1:
            counts.append(-(-counts[-1] // arity))
        self._counts = counts
        offsets = [0]
        for count in counts:
            offsets.append(offsets[-1] + count)
        self._total = offsets.pop()
        self._offsets = offsets
        self._nodes: List[bytes] = [b""] * self._total
        # Interior dirty flags (leaves are always eagerly up to date).
        self._dirty = bytearray(self._total)
        # Digest memos, keyed by exact hash input. Bounded: cleared
        # wholesale when they outgrow the working set (rebuilds repay
        # the loss in one pass).
        self._leaf_memo = {}
        self._node_memo = {}
        self._memo_cap = max(1024, 4 * self._total)
        self.rebuild()

    # -- digest engine -----------------------------------------------------

    def _leaf_digest(self, index: int) -> bytes:
        address = self.base_address + index * self._line_bytes
        data = self.memory.read_line(address)
        memo = self._leaf_memo
        digest = memo.get((address, data))
        if digest is None:
            digest = hash_leaf(address, data)
            if len(memo) >= self._memo_cap:
                memo.clear()
            memo[(address, data)] = digest
        return digest

    def _node_digest(self, children: bytes) -> bytes:
        """``hash_node`` memoized on the concatenated child digests."""
        memo = self._node_memo
        digest = memo.get(children)
        if digest is None:
            digest = hash_node((children,))
            if len(memo) >= self._memo_cap:
                memo.clear()
            memo[children] = digest
        return digest

    # -- construction ------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute the whole tree from memory contents."""
        nodes = self._nodes
        counts = self._counts
        offsets = self._offsets
        arity = self.arity
        for index in range(counts[0]):
            nodes[index] = self._leaf_digest(index)
        for level in range(1, len(counts)):
            child_off = offsets[level - 1]
            child_end = child_off + counts[level - 1]
            parent_off = offsets[level]
            for index in range(counts[level]):
                begin = child_off + index * arity
                nodes[parent_off + index] = self._node_digest(
                    b"".join(nodes[begin:min(begin + arity, child_end)]))
        self._dirty = bytearray(self._total)

    @property
    def root(self) -> bytes:
        """The on-chip root signature."""
        return self.node(len(self._counts) - 1, 0)

    @property
    def height(self) -> int:
        """Number of levels above the leaves."""
        return len(self._counts) - 1

    @property
    def dirty_nodes(self) -> int:
        """Interior nodes with a batched (not yet hashed) update."""
        return sum(self._dirty)

    # -- index helpers --------------------------------------------------------

    def _line_index(self, address: int) -> int:
        index = (address - self.base_address) // self._line_bytes
        if not 0 <= index < self.num_lines:
            raise ConfigError(f"address {address:#x} outside the tree")
        return index

    # -- node access (lazily cleaning batched updates) ---------------------

    def node(self, level: int, index: int) -> bytes:
        """The stored digest of one node, recomputed first if a
        batched ``update_leaf`` left it dirty."""
        pos = self._offsets[level] + index
        if self._dirty[pos]:
            self._recompute(level, index)
        return self._nodes[pos]

    def _recompute(self, level: int, index: int) -> None:
        """Hash one interior node from its (first cleaned) children."""
        counts = self._counts
        offsets = self._offsets
        arity = self.arity
        begin = index * arity
        end = min(begin + arity, counts[level - 1])
        child_off = offsets[level - 1]
        if level >= 2:  # leaves are never dirty
            dirty = self._dirty
            for child in range(begin, end):
                if dirty[child_off + child]:
                    self._recompute(level - 1, child)
        nodes = self._nodes
        pos = offsets[level] + index
        nodes[pos] = self._node_digest(
            b"".join(nodes[child_off + begin:child_off + end]))
        self._dirty[pos] = 0

    # -- updates (legitimate writes) ----------------------------------------

    def update_line(self, address: int) -> int:
        """Re-hash after a legitimate write; returns nodes touched.

        The eager spec: the whole leaf-to-root path is recomputed now
        (batched siblings' pending updates are folded in along the
        way), exactly ``height + 1`` nodes.
        """
        index = self._line_index(address)
        self._nodes[index] = self._leaf_digest(index)
        counts = self._counts
        arity = self.arity
        for level in range(1, len(counts)):
            index //= arity
            self._recompute(level, index)
        return len(counts)

    def update_leaf(self, address: int) -> None:
        """Batched update: refresh the leaf digest now, defer the
        interior path. Ancestors are only *marked*; the next read
        through ``node``/``root``/a verify climb — or one ``flush`` —
        recomputes each of them once, however many leaves changed
        under them in the meantime.
        """
        index = self._line_index(address)
        self._nodes[index] = self._leaf_digest(index)
        counts = self._counts
        offsets = self._offsets
        dirty = self._dirty
        arity = self.arity
        for level in range(1, len(counts)):
            index //= arity
            pos = offsets[level] + index
            if dirty[pos]:
                return  # ancestors above are already marked
            dirty[pos] = 1

    def flush(self) -> int:
        """Recompute all batched updates bottom-up; returns how many
        interior nodes were hashed (each dirty node exactly once)."""
        recomputed = 0
        counts = self._counts
        offsets = self._offsets
        dirty = self._dirty
        nodes = self._nodes
        arity = self.arity
        for level in range(1, len(counts)):
            child_off = offsets[level - 1]
            child_end = child_off + counts[level - 1]
            level_off = offsets[level]
            for index in range(counts[level]):
                if dirty[level_off + index]:
                    begin = child_off + index * arity
                    nodes[level_off + index] = self._node_digest(
                        b"".join(nodes[begin:min(begin + arity,
                                                 child_end)]))
                    dirty[level_off + index] = 0
                    recomputed += 1
        return recomputed

    # -- verification ------------------------------------------------------

    def verify_line(self, address: int) -> None:
        """Check one line against the chain up to the root.

        Raises :class:`IntegrityViolation` naming the level where the
        recomputed digest disagrees with the stored one. A *legitimate*
        state passes; any ``memory.corrupt_line`` (or a stored-digest
        replay) fails.
        """
        index = self._line_index(address)
        digest = self._leaf_digest(index)
        if digest != self._nodes[index]:
            raise IntegrityViolation(
                f"leaf digest mismatch for line {address:#x}")
        counts = self._counts
        offsets = self._offsets
        nodes = self._nodes
        arity = self.arity
        for level in range(1, len(counts)):
            parent_index = index // arity
            begin = parent_index * arity
            end = min(begin + arity, counts[level - 1])
            child_off = offsets[level - 1]
            if level >= 2:
                dirty = self._dirty
                for child in range(begin, end):
                    if dirty[child_off + child]:
                        self._recompute(level - 1, child)
            recomputed = self._node_digest(
                b"".join(nodes[child_off + begin:child_off + end]))
            if recomputed != self.node(level, parent_index):
                raise IntegrityViolation(
                    f"node digest mismatch at level {level} for line "
                    f"{address:#x}")
            index = parent_index

    def verify_all(self) -> None:
        for index in range(self.num_lines):
            self.verify_line(self.base_address
                             + index * self._line_bytes)

    # -- adversarial helpers (tests) -------------------------------------------

    def forge_leaf_digest(self, address: int, digest: bytes) -> None:
        """Overwrite a stored leaf digest (models tampering with the
        in-memory part of the tree); the parent check must catch it."""
        self._nodes[self._line_index(address)] = digest
