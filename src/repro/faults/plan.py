"""Deterministic fault plans for the timing simulation.

A :class:`FaultPlan` is a frozen, seeded description of *what goes
wrong and when*: each :class:`FaultSpec` names a fault kind and a
trigger index into the deterministic event stream that kind perturbs.
Bus faults trigger on the Nth protected (mask-path) message of a
group; pad faults on the Nth pad-cache consultation of a victim CPU;
Merkle faults on the Nth hash-tree verification. Because those
streams are themselves deterministic, the same plan on the same
workload always injects at the same simulated cycle — runs are
exactly repeatable, which is what makes the detection scoreboard a
regression artifact rather than a fuzzing log.

The fault taxonomy maps onto the paper's attack types
(docs/fault_injection.md has the full table):

=============  =====================================================
kind           models
=============  =====================================================
drop           Type 1: a receiver never sees a protected message
reorder        Type 2: two consecutive messages swap delivery order
spoof          Type 3: a forged message claiming a member's PID
bit-flip       corrupted ciphertext on the wire (integrity of a
               single transfer)
mask-desync    a group member's mask array slips a slot (section 4.4
               state divergence)
pad-corrupt    a poisoned pad-cache entry (section 6.1 SNC state)
seq-corrupt    a poisoned sequence number for a line (same structure,
               different field)
merkle-flip    a flipped hash-tree node (section 6.2 CHash state)
=============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..sim.rng import DeterministicRng


class FaultKind:
    """String codes for the fault taxonomy (stable, schema-visible)."""

    DROP = "drop"
    REORDER = "reorder"
    SPOOF = "spoof"
    BIT_FLIP = "bit-flip"
    MASK_DESYNC = "mask-desync"
    PAD_CORRUPT = "pad-corrupt"
    SEQ_CORRUPT = "seq-corrupt"
    MERKLE_FLIP = "merkle-flip"

    #: kinds injected at the bus arbiter (need the SENSS layer)
    BUS = (DROP, REORDER, SPOOF, BIT_FLIP, MASK_DESYNC)
    #: kinds injected in the memory-protection layer
    MEMORY = (PAD_CORRUPT, SEQ_CORRUPT, MERKLE_FLIP)
    ALL = BUS + MEMORY


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``trigger`` indexes the kind's deterministic event stream (see
    module docstring). ``cpu`` is the victim/culprit processor where
    one is meaningful: the desynced member for ``mask-desync``, the
    processor whose SNC is poisoned for pad faults (required there).
    ``victims`` are the receiving PIDs affected by a bus fault (empty
    = every member except the sender). ``claimed_pid`` is the PID a
    ``spoof`` forges.
    """

    kind: str
    trigger: int
    group_id: int = 0
    cpu: int = -1
    victims: Tuple[int, ...] = ()
    claimed_pid: int = -1
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.trigger < 0:
            raise ConfigError("fault trigger must be non-negative")
        if self.kind in (FaultKind.PAD_CORRUPT, FaultKind.SEQ_CORRUPT) \
                and self.cpu < 0:
            raise ConfigError(f"{self.kind} needs a victim cpu")
        if self.kind == FaultKind.SPOOF and self.claimed_pid < 0:
            raise ConfigError("spoof needs a claimed_pid")
        if not self.label:
            object.__setattr__(
                self, "label", f"{self.kind}@{self.trigger}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of planned faults."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @staticmethod
    def single(kind: str, trigger: int, **kwargs) -> "FaultPlan":
        """The one-fault plan most tests and CI smoke points use."""
        return FaultPlan(specs=(FaultSpec(kind, trigger, **kwargs),))

    @staticmethod
    def random(seed: int, count: int, num_cpus: int,
               kinds: Optional[Sequence[str]] = None,
               max_trigger: int = 50) -> "FaultPlan":
        """A seeded plan of ``count`` faults drawn from ``kinds``.

        The same (seed, count, num_cpus, kinds, max_trigger) always
        yields the same plan.
        """
        if count < 0:
            raise ConfigError("fault count must be non-negative")
        if num_cpus < 1:
            raise ConfigError("need at least one cpu")
        rng = DeterministicRng(seed)
        pool = tuple(kinds) if kinds is not None else FaultKind.ALL
        for kind in pool:
            if kind not in FaultKind.ALL:
                raise ConfigError(f"unknown fault kind {kind!r}")
        specs: List[FaultSpec] = []
        for index in range(count):
            kind = rng.choice(pool)
            trigger = rng.randint(0, max_trigger)
            cpu = rng.randint(0, num_cpus - 1)
            claimed = rng.randint(0, num_cpus - 1)
            specs.append(FaultSpec(
                kind, trigger, cpu=cpu,
                claimed_pid=claimed if kind == FaultKind.SPOOF else -1,
                label=f"{kind}@{trigger}#{index}"))
        return FaultPlan(specs=tuple(specs), seed=seed)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def bus_specs(self) -> List[FaultSpec]:
        return [spec for spec in self.specs
                if spec.kind in FaultKind.BUS]

    def memory_specs(self) -> List[FaultSpec]:
        return [spec for spec in self.specs
                if spec.kind in FaultKind.MEMORY]
