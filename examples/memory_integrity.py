#!/usr/bin/env python3
"""Cache-to-memory protection walkthrough — section 6.

Shows the full functional stack the integrated system (Figure 10)
models: fast memory (OTP) encryption with pad coherence, CHash
tree-cached integrity verification, LHash-style lazy verification,
and detection of physical tampering and replay attacks.
"""

from repro.errors import IntegrityViolation
from repro.memory.dram import MainMemory
from repro.memprotect.chash import CachedHashTreeVerifier
from repro.memprotect.lhash import LazyVerifier
from repro.memprotect.merkle import MerkleTree
from repro.memprotect.pad_cache import PadCoherenceDirectory
from repro.memprotect.pads import FastMemoryEncryption

KEY = bytes(range(16))


def encryption_demo() -> None:
    print("1. Fast memory encryption (OTP pads, section 2.1/6.1)")
    memory = MainMemory(64)
    engine = FastMemoryEncryption(KEY, 64)
    secret = b"wire $1,000,000 to account 7781".ljust(64, b".")
    engine.store(memory, 0x1000, secret)
    print(f"   in memory : {memory.read_line(0x1000)[:24].hex()}... "
          "(ciphertext)")
    print(f"   decrypted : {engine.load(memory, 0x1000)[:31]!r}")

    directory = PadCoherenceDirectory(num_processors=2)
    directory.on_fetch(1, 0x1000)          # CPU1 caches the pad
    affected = directory.on_writeback(0, 0x1000)  # CPU0 re-encrypts
    print(f"   CPU0 write-back bumps the pad; stale holders {affected} "
          "get a type-'01' invalidate")
    needs_request = directory.on_fetch(1, 0x1000)
    print("   CPU1's next fetch issues a type-'10' pad request: "
          f"{needs_request}")


def chash_demo() -> None:
    print("\n2. CHash: hash tree cached in L2 (sections 2.2/6.2)")
    memory = MainMemory(64)
    for index in range(64):
        memory.write_line(index * 64, bytes([index] * 64))
    tree = MerkleTree(memory, 0, 64, arity=4)
    verifier = CachedHashTreeVerifier(tree, cache_nodes=16)
    _, cold = verifier.verified_read(0x40)
    _, warm = verifier.verified_read(0x40)
    print(f"   tree height {tree.height}; cold read fetched {cold} "
          f"nodes, warm read {warm} (cached ancestor trusted)")

    memory.corrupt_line(0x40)  # physical tampering
    try:
        verifier.verified_read(0x40)
    except IntegrityViolation as alarm:
        print(f"   tampering detected: {alarm}")

    # Replay: restore old data AND its old leaf digest.
    memory, tree = fresh_replay_setup()
    try:
        tree.verify_line(0x40)
    except IntegrityViolation as alarm:
        print(f"   replay detected at the parent: {alarm}")


def fresh_replay_setup():
    memory = MainMemory(64)
    for index in range(16):
        memory.write_line(index * 64, bytes([index] * 64))
    tree = MerkleTree(memory, 0, 16, arity=4)
    old_data = memory.read_line(0x40)
    old_digest = tree.node(0, 1)
    memory.write_line(0x40, bytes([0xEE] * 64))
    tree.update_line(0x40)
    memory.corrupt_line(0x40, old_data)
    tree.forge_leaf_digest(0x40, old_digest)
    return memory, tree


def lhash_demo() -> None:
    print("\n3. LHash-style lazy verification (section 7.7)")
    memory = MainMemory(64)
    verifier = LazyVerifier(memory)
    for index in range(8):
        verifier.write_line(index * 64, bytes([index] * 64))
    for index in range(8):
        verifier.read_line(index * 64)
    verifier.verify_epoch()
    print("   clean epoch of 16 accesses verified in one deferred "
          f"check ({verifier.epochs_verified} epoch)")

    verifier.write_line(0x40, bytes([9] * 64))
    memory.corrupt_line(0x40)
    try:
        verifier.verify_epoch()
    except IntegrityViolation as alarm:
        print(f"   deferred check still catches tampering: {alarm}")


def main() -> None:
    encryption_demo()
    chash_demo()
    lhash_demo()
    print("\nThe timing side of all three mechanisms drives the")
    print("Figure 10 bench (benchmarks/bench_fig10_integrated.py).")


if __name__ == "__main__":
    main()
