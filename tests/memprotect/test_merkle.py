"""Memory hash tree tests (section 2.2)."""

import pytest

from repro.errors import ConfigError, IntegrityViolation
from repro.memory.dram import MainMemory
from repro.memprotect.merkle import MerkleTree


def make_tree(num_lines=16, arity=4):
    memory = MainMemory(64)
    for index in range(num_lines):
        memory.write_line(index * 64, bytes([index] * 64))
    return memory, MerkleTree(memory, 0, num_lines, arity)


def test_clean_memory_verifies():
    _, tree = make_tree()
    tree.verify_all()


def test_height():
    _, tree = make_tree(num_lines=16, arity=4)
    assert tree.height == 2  # 16 -> 4 -> 1


def test_corruption_detected():
    memory, tree = make_tree()
    memory.corrupt_line(0x40)
    with pytest.raises(IntegrityViolation):
        tree.verify_line(0x40)


def test_corruption_elsewhere_does_not_block_other_lines():
    memory, tree = make_tree()
    memory.corrupt_line(0x40)
    tree.verify_line(0x80)  # untouched line still verifies


def test_legitimate_update_re_verifies():
    memory, tree = make_tree()
    memory.write_line(0x40, bytes([0xEE] * 64))
    touched = tree.update_line(0x40)
    assert touched == tree.height + 1
    tree.verify_all()


def test_replay_attack_detected():
    """Restoring an old (block, leaf-digest) pair fools a flat MAC but
    not the tree: the forged leaf disagrees with its parent."""
    memory, tree = make_tree()
    old_data = memory.read_line(0x40)
    old_digest = tree.node(0, 1)
    # Legitimate update...
    memory.write_line(0x40, bytes([0xEE] * 64))
    tree.update_line(0x40)
    # ...then the adversary replays block AND stored digest.
    memory.corrupt_line(0x40, old_data)
    tree.forge_leaf_digest(0x40, old_digest)
    with pytest.raises(IntegrityViolation) as excinfo:
        tree.verify_line(0x40)
    assert "level 1" in str(excinfo.value)


def test_root_changes_with_any_update():
    memory, tree = make_tree()
    before = tree.root
    memory.write_line(0x80, bytes([1] * 64))
    tree.update_line(0x80)
    assert tree.root != before


def test_rebuild_matches_incremental_updates():
    memory, tree = make_tree()
    memory.write_line(0x00, bytes([5] * 64))
    tree.update_line(0x00)
    incremental_root = tree.root
    tree.rebuild()
    assert tree.root == incremental_root


def test_binary_tree_arity():
    _, tree = make_tree(num_lines=8, arity=2)
    assert tree.height == 3
    tree.verify_all()


def test_non_power_of_arity_line_count():
    memory, tree = make_tree(num_lines=10, arity=4)
    tree.verify_all()
    memory.corrupt_line(9 * 64)
    with pytest.raises(IntegrityViolation):
        tree.verify_line(9 * 64)


def test_out_of_range_address_rejected():
    _, tree = make_tree(num_lines=4)
    with pytest.raises(ConfigError):
        tree.verify_line(4 * 64)


def test_constructor_validation():
    memory = MainMemory(64)
    with pytest.raises(ConfigError):
        MerkleTree(memory, 0, 0)
    with pytest.raises(ConfigError):
        MerkleTree(memory, 0, 4, arity=1)
    with pytest.raises(ConfigError):
        MerkleTree(memory, 3, 4)  # unaligned base
