"""Deterministic randomness for workload generation and crypto setup.

All stochastic behaviour in the reproduction flows through seeded
:class:`DeterministicRng` instances so every experiment is exactly
repeatable — the paper's own §7.8 discussion of simulation variability
makes determinism worth engineering for.
"""

from __future__ import annotations

import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A thin, explicitly seeded wrapper around :class:`random.Random`."""

    def __init__(self, seed: int):
        self.seed = seed
        self._random = random.Random(seed)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, options: Sequence[T]) -> T:
        return self._random.choice(options)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def sample(self, population: Sequence[T], count: int) -> List[T]:
        return self._random.sample(population, count)

    def getrandbits(self, bits: int) -> int:
        return self._random.getrandbits(bits)

    def random_bytes(self, count: int) -> bytes:
        return self._random.getrandbits(count * 8).to_bytes(count, "little")

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent child stream (stable under refactoring)."""
        return DeterministicRng((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)

    def geometric(self, mean: float) -> int:
        """Geometric-ish positive integer with the given mean (>= 1)."""
        if mean <= 1.0:
            return 1
        # Inverse-CDF sampling of a geometric distribution.
        probability = 1.0 / mean
        limit = 64 * mean
        draw = self._random.random
        value = 1
        while draw() > probability and value < limit:
            value += 1
        return value
