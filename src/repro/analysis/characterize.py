"""Workload characterization (supporting the §7.2 methodology).

The paper's overheads are functions of workload properties — miss
rates, the cache-to-cache share of bus traffic, write intensity. This
module measures those properties for any workload on any machine
configuration, both to sanity-check the synthetic SPLASH-2 stand-ins
(DESIGN.md §2) and to explain per-workload differences in the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import SystemConfig
from ..smp.system import SmpSystem
from ..smp.trace import Workload


@dataclass(frozen=True)
class WorkloadProfile:
    """Static + dynamic characterization of one workload run."""

    name: str
    num_cpus: int
    references: int
    write_fraction: float
    shared_fraction: float
    unique_lines: int
    l2_miss_rate: float
    cache_to_cache_share: float
    upgrades_per_kref: float
    writebacks_per_kref: float
    bus_utilisation: float
    cycles_per_reference: float

    def rows(self) -> List[List[str]]:
        return [[
            self.name,
            str(self.references),
            f"{self.write_fraction:.1%}",
            f"{self.shared_fraction:.1%}",
            str(self.unique_lines),
            f"{self.l2_miss_rate:.2%}",
            f"{self.cache_to_cache_share:.1%}",
            f"{self.upgrades_per_kref:.2f}",
            f"{self.writebacks_per_kref:.2f}",
            f"{self.bus_utilisation:.1%}",
            f"{self.cycles_per_reference:.1f}",
        ]]

    @staticmethod
    def header() -> List[str]:
        return ["workload", "refs", "writes", "shared", "lines",
                "L2 miss", "c2c share", "upgr/kref", "wb/kref",
                "bus util", "cyc/ref"]


def characterize(workload: Workload,
                 config: SystemConfig) -> WorkloadProfile:
    """Run the workload on an insecure machine and profile it."""
    from ..workloads.base import PRIVATE_BASE

    writes = shared = 0
    lines = set()
    line_bytes = config.l2.line_bytes
    for _, access in workload.iter_flat():
        if access.is_write:
            writes += 1
        if access.address < PRIVATE_BASE:
            shared += 1
        lines.add(access.address // line_bytes)

    system = SmpSystem(config.with_senss(False))
    result = system.run(workload)
    references = workload.total_accesses
    misses = sum(result.stat(f"cpu{cpu}.l2_miss")
                 for cpu in range(workload.num_cpus))
    data_tx = (result.stat("bus.tx.BusRd")
               + result.stat("bus.tx.BusRdX")
               + result.stat("bus.tx.WB"))
    occupancy = (data_tx * 3 * config.bus.cycle_cpu_cycles
                 + result.stat("bus.tx.BusUpgr")
                 * config.bus.cycle_cpu_cycles)
    total_tx = max(1, result.total_bus_transactions)
    return WorkloadProfile(
        name=workload.name,
        num_cpus=workload.num_cpus,
        references=references,
        write_fraction=writes / references if references else 0.0,
        shared_fraction=shared / references if references else 0.0,
        unique_lines=len(lines),
        l2_miss_rate=misses / references if references else 0.0,
        cache_to_cache_share=(result.cache_to_cache_transfers
                              / total_tx),
        upgrades_per_kref=(1000.0 * result.stat("bus.tx.BusUpgr")
                           / references if references else 0.0),
        writebacks_per_kref=(1000.0 * result.stat("bus.tx.WB")
                             / references if references else 0.0),
        bus_utilisation=(occupancy / result.cycles
                         if result.cycles else 0.0),
        cycles_per_reference=(result.cycles / references *
                              workload.num_cpus if references else 0.0),
    )
