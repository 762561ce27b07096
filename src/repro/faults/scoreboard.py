"""The detection scoreboard: what was injected, what caught it, when.

Every injected fault gets a :class:`FaultRecord`. When a defense
mechanism fires — the MAC interval check (section 4.3), the immediate
own-PID spoof check, pad coherence (section 6.1), or the Merkle/CHash
verify (section 6.2) — the record is stamped with the mechanism name
and the detection latency in both *transactions* and *cycles*. The
transaction unit is the stream the defense counts: protected messages
for the MAC interval check (so ``latency_tx <= auth_interval`` holds
by construction), pad consultations for pad coherence, verification
climbs for the hash tree. Faults still undetected when the run ends stay
on the board as such: an undetected fault is a finding, not an
accounting gap.

Aggregate counters are exported through the system's
:class:`~repro.sim.stats.StatsRegistry` (``faults.injected``,
``faults.detected``, ``faults.undetected``, ``faults.masked``,
per-mechanism ``faults.by_mechanism.<name>``, ``faults.recovered``)
so sweep results and reports carry the outcome without any extra
plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: mechanism names stamped into FaultRecord.mechanism
MECH_MAC = "mac_interval"
MECH_SPOOF = "spoof_self"
MECH_PAD = "pad_coherence"
MECH_MERKLE = "merkle_verify"
MECHANISMS = (MECH_MAC, MECH_SPOOF, MECH_PAD, MECH_MERKLE)


@dataclass
class FaultRecord:
    """Lifecycle of one injected fault."""

    kind: str
    label: str
    group_id: int = -1
    cpu: int = -1
    inject_cycle: int = -1
    inject_tx: int = -1          # defense-stream position at injection
    detect_cycle: int = -1
    detect_tx: int = -1
    mechanism: Optional[str] = None
    recovery: Optional[str] = None   # policy applied after detection
    recovered: bool = False          # run continued past the fault
    masked: bool = False             # fault state overwritten unseen

    @property
    def detected(self) -> bool:
        return self.mechanism is not None

    @property
    def latency_cycles(self) -> int:
        if not self.detected:
            return -1
        return self.detect_cycle - self.inject_cycle

    @property
    def latency_tx(self) -> int:
        if not self.detected or self.inject_tx < 0 or self.detect_tx < 0:
            return -1
        return self.detect_tx - self.inject_tx

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "label": self.label,
            "group_id": self.group_id,
            "cpu": self.cpu,
            "inject_cycle": self.inject_cycle,
            "inject_tx": self.inject_tx,
            "detected": self.detected,
            "mechanism": self.mechanism,
            "detect_cycle": self.detect_cycle,
            "detect_tx": self.detect_tx,
            "latency_cycles": self.latency_cycles,
            "latency_tx": self.latency_tx,
            "recovery": self.recovery,
            "recovered": self.recovered,
            "masked": self.masked,
        }


@dataclass
class DetectionScoreboard:
    """All fault records of one run plus aggregate accounting."""

    records: List[FaultRecord] = field(default_factory=list)
    penalty_cycles: int = 0   # recovery cycles charged to the run

    def open_record(self, kind: str, label: str, group_id: int = -1,
                    cpu: int = -1, cycle: int = -1,
                    tx: int = -1) -> FaultRecord:
        record = FaultRecord(kind=kind, label=label, group_id=group_id,
                             cpu=cpu, inject_cycle=cycle, inject_tx=tx)
        self.records.append(record)
        return record

    def mark_detected(self, record: FaultRecord, mechanism: str,
                      cycle: int, tx: int = -1) -> None:
        record.mechanism = mechanism
        record.detect_cycle = cycle
        record.detect_tx = tx

    # -- aggregates ----------------------------------------------------

    @property
    def injected(self) -> int:
        return len(self.records)

    @property
    def detected(self) -> int:
        return sum(1 for record in self.records if record.detected)

    @property
    def undetected(self) -> int:
        return sum(1 for record in self.records
                   if not record.detected and not record.masked)

    @property
    def masked(self) -> int:
        return sum(1 for record in self.records if record.masked)

    @property
    def recovered(self) -> int:
        return sum(1 for record in self.records if record.recovered)

    def by_mechanism(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.mechanism is not None:
                counts[record.mechanism] = \
                    counts.get(record.mechanism, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, object]:
        return {
            "injected": self.injected,
            "detected": self.detected,
            "undetected": self.undetected,
            "masked": self.masked,
            "recovered": self.recovered,
            "penalty_cycles": self.penalty_cycles,
            "by_mechanism": self.by_mechanism(),
            "records": [record.as_dict() for record in self.records],
        }
