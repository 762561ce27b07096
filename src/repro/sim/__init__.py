"""Simulation kernel: statistics, deterministic randomness and the
parallel sweep runner."""

from .rng import DeterministicRng
from .stats import StatsRegistry
from .sweep import (ENGINE_VERSION, ResultCache, SweepPoint,
                    SweepPointFailure, SweepTimings, build_system,
                    point_key, run_point, run_sweep)

__all__ = ["DeterministicRng", "ENGINE_VERSION",
           "ResultCache", "StatsRegistry", "SweepPoint",
           "SweepPointFailure", "SweepTimings", "build_system",
           "point_key", "run_point", "run_sweep"]
