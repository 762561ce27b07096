"""Multiprogrammed workloads: several SENSS groups on one machine.

Figure 1 shows two applications sharing the SMP with different (even
overlapping) processor groups; section 4.2 requires each group to
maintain its own masks "during the lifetime that the group is active".
This module packs several single-program workloads onto disjoint CPU
sets of one machine and produces the per-CPU group-ID map that
:meth:`repro.smp.system.SmpSystem.set_cpu_groups` consumes.

Programs get disjoint *address spaces* too (each one's addresses are
offset into its own slice of the shared region) so the only coupling
between groups is the shared bus — exactly the isolation SENSS's GID
tagging is meant to preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import TraceError
from ..smp.trace import Workload

PROGRAM_ADDRESS_STRIDE = 1 << 30  # 1 GB per program: never collides


@dataclass(frozen=True)
class ProgramPlacement:
    """One program's slot in the multiprogrammed machine."""

    workload: Workload
    group_id: int
    first_cpu: int

    @property
    def num_cpus(self) -> int:
        return self.workload.num_cpus


def combine(programs: Sequence[Workload],
            group_ids: Sequence[int] = None
            ) -> Tuple[Workload, List[int], List[ProgramPlacement]]:
    """Pack programs onto consecutive CPU ranges of one machine.

    Returns ``(combined_workload, cpu_group_ids, placements)``. Each
    program keeps its internal trace but is relocated into a private
    1 GB address slice. Group IDs default to the program index.
    """
    if not programs:
        raise TraceError("need at least one program")
    if group_ids is None:
        group_ids = list(range(len(programs)))
    if len(group_ids) != len(programs):
        raise TraceError("one group id per program required")

    traces: List = []
    cpu_group_ids: List[int] = []
    placements: List[ProgramPlacement] = []
    first_cpu = 0
    for index, program in enumerate(programs):
        placements.append(ProgramPlacement(program, group_ids[index],
                                           first_cpu))
        for trace in program.traces:
            traces.append(trace.relocated(index * PROGRAM_ADDRESS_STRIDE))
            cpu_group_ids.append(group_ids[index])
        first_cpu += program.num_cpus

    name = "+".join(program.name for program in programs)
    # Relocation of already-validated programs cannot introduce bad
    # records; skip the per-access revalidation scan.
    combined = Workload(name, traces,
                        {"programs": [program.name
                                      for program in programs],
                         "group_ids": list(group_ids)},
                        validate=False)
    return combined, cpu_group_ids, placements


def run_multiprogrammed(system, programs: Sequence[Workload],
                        group_ids: Sequence[int] = None):
    """Convenience: combine, configure groups, register them with the
    security layer (if any), run. Returns (result, placements)."""
    combined, cpu_group_ids, placements = combine(programs, group_ids)
    if combined.num_cpus > system.config.num_processors:
        raise TraceError(
            f"programs need {combined.num_cpus} CPUs but the machine "
            f"has {system.config.num_processors}")
    # Idle processors (if any) stay in their own unused group.
    padding = [max(cpu_group_ids) + 1] * (system.config.num_processors
                                          - len(cpu_group_ids))
    system.set_cpu_groups(cpu_group_ids + padding)
    layer = system.bus.security_layer
    if layer is not None:
        members_by_group: dict = {}
        for placement in placements:
            members = range(placement.first_cpu,
                            placement.first_cpu + placement.num_cpus)
            members_by_group.setdefault(placement.group_id,
                                        []).extend(members)
        for group_id, members in members_by_group.items():
            layer.register_group(group_id, sorted(set(members)))
    return system.run(combined), placements
