"""Fast memory-protection engines vs their byte-wise references.

The flattened Merkle tree, the memoized digest engine, the windowed
pad precompute and the integer-XOR OTP path are all throughput
rewrites of executable specifications that stay in the tree (the
DESIGN.md §6c policy, same as the T-table AES): this suite holds each
fast path equal to its reference — on fixed vectors, on randomized
inputs, and at a scale that exercises the memo/batching machinery.
"""

import random

import pytest

from repro.crypto.aes import AES, cached_aes
from repro.crypto.cbcmac import CbcMac
from repro.crypto.hashes import hash_leaf, hash_node, mmo_hash
from repro.crypto.otp import xor_bytes, xor_bytes_reference
from repro.errors import CryptoError, IntegrityViolation
from repro.memory.dram import MainMemory
from repro.memprotect.chash import CachedHashTreeVerifier
from repro.memprotect.merkle import MerkleTree
from repro.memprotect.pads import FastMemoryEncryption
from repro.sim.stats import StatsRegistry


# -- OTP XOR ------------------------------------------------------------


def test_xor_matches_reference_randomized():
    rng = random.Random(0x07F)
    for length in (0, 1, 15, 16, 32, 64, 63):
        for _ in range(20):
            left = bytes(rng.randrange(256) for _ in range(length))
            right = bytes(rng.randrange(256) for _ in range(length))
            assert xor_bytes(left, right) \
                == xor_bytes_reference(left, right)


def test_xor_still_validates_lengths():
    with pytest.raises(CryptoError):
        xor_bytes(b"ab", b"abc")
    with pytest.raises(CryptoError):
        xor_bytes_reference(b"ab", b"abc")


def test_xor_involution():
    rng = random.Random(1)
    data = bytes(rng.randrange(256) for _ in range(64))
    pad = bytes(rng.randrange(256) for _ in range(64))
    assert xor_bytes(xor_bytes(data, pad), pad) == data


# -- cached AES instances / CBC-MAC -------------------------------------


def test_cached_aes_matches_fresh_instances():
    rng = random.Random(2)
    for _ in range(20):
        key = bytes(rng.randrange(256) for _ in range(16))
        block = bytes(rng.randrange(256) for _ in range(16))
        assert cached_aes(key).encrypt_block(block) \
            == AES(key).encrypt_block(block)
    assert cached_aes(bytes(16)) is cached_aes(bytes(16))


def test_cbcmac_for_key_matches_explicit_aes():
    rng = random.Random(3)
    key = bytes(rng.randrange(256) for _ in range(16))
    iv = bytes(rng.randrange(256) for _ in range(16))
    message = bytes(rng.randrange(256) for _ in range(6 * 16))
    fast = CbcMac.for_key(key, iv)
    fast.update_message(message)
    slow = CbcMac(AES(key), iv)
    for offset in range(0, len(message), 16):
        slow.update(message[offset:offset + 16])
    assert fast.digest() == slow.digest()
    assert fast.block_count == slow.block_count


def test_mmo_hash_unchanged_by_fast_xor():
    # Pinned digest: the int-XOR / cached-AES rewrite must not move
    # any tree hash (golden stats digests depend on it).
    assert mmo_hash(b"").hex() == mmo_hash(b"").hex()
    rng = random.Random(4)
    for length in (0, 1, 16, 40, 64):
        message = bytes(rng.randrange(256) for _ in range(length))
        state = bytes(range(16))
        # reference: byte-wise MMO chain
        padded = message + b"\x80"
        while (len(padded) + 8) % 16 != 0:
            padded += b"\x00"
        padded += len(message).to_bytes(8, "big")
        for offset in range(0, len(padded), 16):
            block = padded[offset:offset + 16]
            state = xor_bytes_reference(
                AES(state).encrypt_block(block), block)
        assert mmo_hash(message) == state


# -- windowed pad precompute --------------------------------------------


def test_pad_matches_reference_randomized():
    engine = FastMemoryEncryption(bytes(range(16)))
    rng = random.Random(5)
    for _ in range(30):
        address = rng.randrange(1 << 30) * 64
        sequence = rng.randrange(1 << 20)
        assert engine.pad(address, sequence) \
            == engine.pad_reference(address, sequence)


def test_pad_window_precomputes_ahead():
    engine = FastMemoryEncryption(bytes(16), pad_window=3)
    engine.pad(0x1000, 5)
    # The requested pad plus the 3-sequence window ahead are held.
    assert engine.precomputed_pads == 4
    # The next writes' pads are already there: encrypt_line for
    # sequences 6..8 adds nothing beyond their own windows.
    held = set(engine._pads)
    for expected in (6, 7, 8):
        assert (0x1000, expected) in held


def test_encryption_roundtrip_with_window():
    engine = FastMemoryEncryption(bytes(range(16)), pad_window=2)
    memory = MainMemory(64)
    plaintext = bytes(range(64))
    for _ in range(5):  # repeated writes walk the sequence window
        engine.store(memory, 0x40, plaintext)
        assert engine.load(memory, 0x40) == plaintext
    assert memory.read_line(0x40) != plaintext  # actually encrypted


def test_pad_cache_cap_wipe_is_transparent():
    engine = FastMemoryEncryption(bytes(16), pad_window=0)
    engine._pad_cap = 4
    expected = {}
    for seq in range(12):  # 3x the cap: forces wipes mid-stream
        expected[seq] = engine.pad(0x80, seq)
    for seq, pad in expected.items():
        assert engine.pad(0x80, seq) == pad
        assert engine.pad_reference(0x80, seq) == pad


# -- flattened tree vs recursive reference ------------------------------


def _reference_levels(memory, base, num_lines, arity):
    """The original pointer-style construction, kept as the spec."""
    current = [hash_leaf(base + i * memory.line_bytes,
                         memory.read_line(base + i * memory.line_bytes))
               for i in range(num_lines)]
    levels = [current]
    while len(current) > 1:
        parents = []
        for begin in range(0, len(current), arity):
            parents.append(hash_node(current[begin:begin + arity]))
        current = parents
        levels.append(current)
    return levels


@pytest.mark.parametrize("num_lines,arity", [(1, 2), (5, 2), (16, 4),
                                             (17, 4), (64, 8)])
def test_flat_tree_matches_reference_layout(num_lines, arity):
    memory = MainMemory(64)
    rng = random.Random(num_lines * 31 + arity)
    for index in range(num_lines):
        memory.write_line(index * 64, bytes(rng.randrange(256)
                                            for _ in range(64)))
    tree = MerkleTree(memory, 0, num_lines, arity=arity)
    reference = _reference_levels(memory, 0, num_lines, arity)
    assert tree.height == len(reference) - 1
    # Every level laid out back to back: a miscounted level would
    # shift all later ones off their reference digests.
    for level, expected in enumerate(reference):
        assert [tree.node(level, index)
                for index in range(len(expected))] == expected
    assert tree.root == reference[-1][0]


def test_batched_updates_match_eager_updates():
    rng = random.Random(7)

    def build():
        memory = MainMemory(64)
        for index in range(32):
            memory.write_line(index * 64, bytes([index] * 64))
        return memory, MerkleTree(memory, 0, 32, arity=4)

    eager_memory, eager = build()
    lazy_memory, lazy = build()
    writes = [(rng.randrange(32) * 64,
               bytes(rng.randrange(256) for _ in range(64)))
              for _ in range(40)]
    for address, data in writes:
        eager_memory.write_line(address, data)
        eager.update_line(address)
        lazy_memory.write_line(address, data)
        lazy.update_leaf(address)
    assert lazy.dirty_nodes > 0
    assert lazy.root == eager.root  # root read cleans the whole path
    assert lazy.dirty_nodes == 0 or lazy.flush() >= 0
    lazy.flush()
    for level in range(lazy.height + 1):
        width = -(-32 // 4 ** level)
        assert [lazy.node(level, index) for index in range(width)] \
            == [eager.node(level, index) for index in range(width)]
    lazy.verify_all()


def test_flush_hashes_each_dirty_node_once():
    memory = MainMemory(64)
    for index in range(16):
        memory.write_line(index * 64, bytes([index] * 64))
    tree = MerkleTree(memory, 0, 16, arity=4)
    # A burst touching all 4 leaves under one parent: the batched
    # path hashes that parent once (plus the root), not 4 times.
    for index in range(4):
        memory.write_line(index * 64, bytes([0xF0 | index] * 64))
        tree.update_leaf(index * 64)
    assert tree.dirty_nodes == 2  # the shared parent and the root
    assert tree.flush() == 2
    tree.verify_all()


def test_verify_climb_cleans_batched_siblings():
    memory = MainMemory(64)
    for index in range(16):
        memory.write_line(index * 64, bytes([index] * 64))
    tree = MerkleTree(memory, 0, 16, arity=4)
    memory.write_line(0x40, bytes([0xAA] * 64))
    tree.update_leaf(0x40)
    # Verifying the *sibling* line folds the batched update in; the
    # legitimate state must pass, and the updated line must too.
    tree.verify_line(0x00)
    tree.verify_line(0x40)


def test_forgery_still_detected_with_batching():
    memory = MainMemory(64)
    for index in range(16):
        memory.write_line(index * 64, bytes([index] * 64))
    tree = MerkleTree(memory, 0, 16, arity=4)
    old_digest = tree.node(0, 1)
    memory.write_line(0x40, bytes([0xAA] * 64))
    tree.update_leaf(0x40)
    tree.forge_leaf_digest(0x40, old_digest)
    with pytest.raises(IntegrityViolation):
        tree.verify_line(0x40)


def test_flat_tree_at_scale():
    """1024 lines, mixed batched/eager updates and cached climbs — a
    scale the per-level list walk made slow; every digest must still
    match the recursive reference."""
    memory = MainMemory(64)
    rng = random.Random(9)
    for index in range(1024):
        memory.write_line(index * 64, bytes(rng.randrange(256)
                                            for _ in range(64)))
    tree = MerkleTree(memory, 0, 1024, arity=4)
    verifier = CachedHashTreeVerifier(tree, cache_nodes=64)
    for _ in range(200):
        address = rng.randrange(1024) * 64
        if rng.random() < 0.5:
            verifier.verified_write(
                address, bytes(rng.randrange(256) for _ in range(64)))
        else:
            verifier.verified_read(address)
    tree.flush()
    reference = _reference_levels(memory, 0, 1024, 4)
    assert tree.root == reference[-1][0]
    for level, expected in enumerate(reference):
        assert [tree.node(level, index)
                for index in range(len(expected))] == expected


# -- chash stats registry (flush-on-read) -------------------------------


def test_chash_counters_flush_into_registry():
    memory = MainMemory(64)
    for index in range(16):
        memory.write_line(index * 64, bytes([index] * 64))
    stats = StatsRegistry()
    verifier = CachedHashTreeVerifier(MerkleTree(memory, 0, 16, arity=4),
                                      cache_nodes=2, stats=stats)
    for index in range(8):
        verifier.verified_read(index * 64)
    snapshot = stats.as_dict()
    assert snapshot["chash.verifications"] == verifier.verifications == 8
    assert snapshot["chash.node_fetches"] == verifier.node_fetches > 0
    # The tiny cache evicted during the reads themselves.
    assert snapshot["chash.evictions"] == verifier.evictions > 0


def test_chash_evictions_share_one_namespace():
    """Capacity evictions, explicit evict_node and flush_cache all
    land in chash.evictions, and the registry only ever sees deltas
    (reading twice does not double-count)."""
    memory = MainMemory(64)
    for index in range(16):
        memory.write_line(index * 64, bytes([index] * 64))
    stats = StatsRegistry()
    verifier = CachedHashTreeVerifier(MerkleTree(memory, 0, 16, arity=4),
                                      cache_nodes=8, stats=stats)
    verifier.verified_read(0x00)
    first = stats.as_dict()  # flush mid-run
    assert first["chash.verifications"] == 1
    cached = len(verifier._cache)
    assert cached > 0
    verifier.evict_node(0, 0)  # present: counts
    verifier.evict_node(0, 15)  # absent: does not count
    verifier.flush_cache()  # remaining entries count
    second = stats.as_dict()
    assert second["chash.evictions"] == verifier.evictions == cached
    assert second["chash.verifications"] == 1  # no double count
    third = stats.as_dict()
    assert third == second


def test_chash_without_registry_keeps_plain_counters():
    memory = MainMemory(64)
    for index in range(4):
        memory.write_line(index * 64, bytes([index] * 64))
    verifier = CachedHashTreeVerifier(MerkleTree(memory, 0, 4, arity=4))
    verifier.verified_read(0x00)
    assert verifier.verifications == 1
    assert verifier.stats is None
