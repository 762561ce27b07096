"""Deterministic RNG tests."""

import random

import pytest

from repro.sim.rng import DeterministicRng


def test_same_seed_same_stream():
    a = DeterministicRng(5)
    b = DeterministicRng(5)
    assert [a.randint(0, 100) for _ in range(20)] == \
           [b.randint(0, 100) for _ in range(20)]


def test_different_seed_different_stream():
    a = DeterministicRng(5)
    b = DeterministicRng(6)
    assert [a.randint(0, 1 << 30) for _ in range(5)] != \
           [b.randint(0, 1 << 30) for _ in range(5)]


def test_fork_independent_and_stable():
    root = DeterministicRng(9)
    child_a = root.fork(1)
    child_b = root.fork(2)
    again = DeterministicRng(9).fork(1)
    seq_a = [child_a.randint(0, 1000) for _ in range(5)]
    assert seq_a == [again.randint(0, 1000) for _ in range(5)]
    assert seq_a != [child_b.randint(0, 1000) for _ in range(5)]


def test_random_bytes_length_and_determinism():
    assert len(DeterministicRng(1).random_bytes(16)) == 16
    assert (DeterministicRng(1).random_bytes(16)
            == DeterministicRng(1).random_bytes(16))


def test_geometric_mean_is_roughly_right():
    rng = DeterministicRng(3)
    samples = [rng.geometric(8.0) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert 6.5 < mean < 9.5
    assert min(samples) >= 1


def test_geometric_degenerate_mean():
    rng = DeterministicRng(3)
    assert all(rng.geometric(1.0) == 1 for _ in range(10))


def _frozen_geometric(source: random.Random, mean: float) -> int:
    """The sampler's loop as first written: the reference its faster
    form must match draw for draw."""
    if mean <= 1.0:
        return 1
    probability = 1.0 / mean
    value = 1
    while source.random() > probability and value < 64 * mean:
        value += 1
    return value


@pytest.mark.parametrize("mean", [1.5, 2, 2.5, 3, 6, 8, 12])
def test_geometric_matches_frozen_loop(mean):
    """Every trace gap comes from ``geometric``: the same draws in the
    same order, and the stream left in the same state afterwards."""
    rng = DeterministicRng(11)
    reference = random.Random(11)
    draws = 100_000
    assert ([rng.geometric(mean) for _ in range(draws)]
            == [_frozen_geometric(reference, mean) for _ in range(draws)])
    assert rng._random.getstate() == reference.getstate()


def test_choice_and_sample():
    rng = DeterministicRng(4)
    population = list(range(10))
    assert rng.choice(population) in population
    picked = rng.sample(population, 3)
    assert len(set(picked)) == 3
