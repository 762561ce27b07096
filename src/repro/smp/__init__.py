"""Trace-driven SMP system simulator (the Simics substitute)."""

from .metrics import SimulationResult, slowdown_percent, traffic_increase_percent
from .system import SmpSystem
from .trace import MemoryAccess, Workload

__all__ = ["MemoryAccess", "SimulationResult", "SmpSystem", "Workload",
           "slowdown_percent", "traffic_increase_percent"]
