"""Simulation results and the paper's evaluation metrics.

The paper reports two headline numbers per configuration:

- **Percentage slowdown** — execution-time increase of the secured
  machine over the insecure baseline (Figures 6, 7, 9, 10).
- **Bus activity increase** — growth in total bus transactions
  (Figures 7, 8, 9, 10). Authentication messages are added only on top
  of cache-to-cache transfers, which is why interval-100 numbers sit
  well below 1%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SimulationResult:
    """Everything a bench needs from one simulator run."""

    workload: str
    num_cpus: int
    cycles: int                       # completion time (max over CPUs)
    per_cpu_cycles: List[int]
    stats: Dict[str, int] = field(default_factory=dict)
    #: a fault run's scoreboard dict plus ``halted`` (then cycles -1)
    faults: Optional[Dict[str, object]] = None

    @property
    def total_bus_transactions(self) -> int:
        return self.stats.get("bus.transactions", 0)

    @property
    def cache_to_cache_transfers(self) -> int:
        return self.stats.get("bus.cache_to_cache", 0)

    @property
    def memory_transfers(self) -> int:
        return self.stats.get("bus.with_memory", 0)

    @property
    def auth_messages(self) -> int:
        return self.stats.get("bus.tx.Auth00", 0)

    def stat(self, name: str) -> int:
        return self.stats.get(name, 0)

    def summary(self) -> str:
        return (f"{self.workload}: {self.cycles} cycles, "
                f"{self.total_bus_transactions} bus tx "
                f"({self.cache_to_cache_transfers} c2c, "
                f"{self.memory_transfers} mem, "
                f"{self.auth_messages} auth)")


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """The JSON form of a result: the result cache's entries and the
    serve API's result rows (docs/serving.md) both use it. The
    ``faults`` section is written only when present."""
    payload = {"workload": result.workload,
               "num_cpus": result.num_cpus,
               "cycles": result.cycles,
               "per_cpu_cycles": list(result.per_cpu_cycles),
               "stats": dict(result.stats)}
    if result.faults is not None:
        payload["faults"] = result.faults
    return payload


def result_from_dict(payload) -> Optional[SimulationResult]:
    """Inverse of :func:`result_to_dict`; ``None`` stays ``None``."""
    if payload is None:
        return None
    return SimulationResult(workload=payload["workload"],
                            num_cpus=payload["num_cpus"],
                            cycles=payload["cycles"],
                            per_cpu_cycles=list(payload["per_cpu_cycles"]),
                            stats=dict(payload["stats"]),
                            faults=payload.get("faults"))


def slowdown_percent(baseline: SimulationResult,
                     secured: SimulationResult) -> float:
    """Percentage slowdown of ``secured`` relative to ``baseline``.

    Can be (slightly) negative: section 7.8 explains how small timing
    shifts can reorder accesses and *reduce* misses in a full-system
    run; the trace-driven analogue is contention-shifted sharing.
    """
    if baseline.cycles <= 0:
        raise ValueError("baseline run has no cycles")
    return 100.0 * (secured.cycles - baseline.cycles) / baseline.cycles


def traffic_increase_percent(baseline: SimulationResult,
                             secured: SimulationResult) -> float:
    """Percentage increase in total bus transactions."""
    base = baseline.total_bus_transactions
    if base <= 0:
        raise ValueError("baseline run has no bus transactions")
    return 100.0 * (secured.total_bus_transactions - base) / base


def average(values: List[float]) -> float:
    if not values:
        raise ValueError("cannot average an empty list")
    return sum(values) / len(values)
