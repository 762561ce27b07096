"""Deterministic run recordings (docs/record_replay.md).

A *recording* persists everything observable about one simulated run
in one self-describing JSON file:

- the full columnar trace-event stream (an
  :class:`~repro.obs.ring.EventLog` with no capacity bound — dropped
  events would read as divergence);
- :class:`~repro.sim.stats.StatsRegistry` snapshots taken at
  authentication-checkpoint boundaries (delta-encoded — each snapshot
  stores only the counters that changed since the previous one);
- the final :class:`~repro.smp.metrics.SimulationResult` (``None``
  when a fault-recovery ``halt`` ended the run early);
- the engine/config fingerprint (:func:`~repro.sim.sweep.point_key`)
  plus the full config and workload coordinates needed to re-run it.

Everything the simulator produces is deterministic, so the file is
deterministic too: the same (workload, scale, seed, config) always
serializes to the same bytes (pinned by tests/obs/test_recording.py).
The only non-deterministic content — optional wall-clock phase
``timings`` — is excluded from the embedded checksum and from diffs,
and is only stored when explicitly passed.

:func:`record_run` is the one-call entry point — it runs through
:func:`repro.sim.checkpoint.fork_point`, the run driver of every
chain point, campaign cell and recorded sweep point, so a recording
written by ``repro record`` and one written by a forked sweep are the
same bytes; replay and diffing live in :mod:`repro.obs.replay`
and :mod:`repro.obs.diff`. Content-addressed recordings (sweeps,
chains, the serve plane) are published atomically and read back
verified through :class:`repro.sim.sweep.RecordingStore`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..errors import TraceError
from ..smp.metrics import SimulationResult
from .ring import TraceEvent
from .tracer import Tracer

#: recording file schema version (bump with any shape change)
RECORDING_SCHEMA_VERSION = 1

#: canonical serialization knobs — compact and key-sorted, so equal
#: payloads are equal bytes
_DUMP_KWARGS = {"sort_keys": True, "separators": (",", ":")}


class Recorder(Tracer):
    """A tracer that also snapshots the stats registry at every
    ``snapshot_every``-th authentication checkpoint.

    Its log keeps every event (``capacity=None``); metrics histograms
    are off (recordings capture the counter namespace exactly — the
    histogram distributions are derivable from the event stream).
    Snapshots are exact despite the engine's deferred-stats hot path:
    any :meth:`StatsRegistry.as_dict` read drains every registered
    flusher first (DESIGN.md §6c), so mid-run reads are deterministic
    (pinned by tests/obs/test_recording.py).
    """

    def __init__(self, snapshot_every: int = 1):
        super().__init__(capacity=None, metrics=False)
        self.snapshot_every = max(1, snapshot_every)
        self.snapshots: List[Dict[str, object]] = []
        self._auth_seen = 0
        self._last_counters: Dict[str, int] = {}

    def on_auth_mac(self, group_id: int, initiator: int,
                    cycle: int) -> None:
        super().on_auth_mac(group_id, initiator, cycle)
        self._auth_seen += 1
        if (self._auth_seen - 1) % self.snapshot_every:
            return
        if self._system is None:
            return
        current = self._system.stats.as_dict()
        last = self._last_counters
        delta = {name: value for name, value in current.items()
                 if last.get(name) != value}
        self._last_counters = current
        self.snapshots.append({"cycle": cycle, "group": group_id,
                               "counters": delta})


def _checksum(core: Dict[str, object]) -> str:
    canonical = json.dumps(core, **_DUMP_KWARGS)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _plan_to_dict(plan, policy: Optional[str]) -> Dict[str, object]:
    return {
        "seed": plan.seed,
        "policy": policy,
        "specs": [{"kind": spec.kind, "trigger": spec.trigger,
                   "group_id": spec.group_id, "cpu": spec.cpu,
                   "victims": list(spec.victims),
                   "claimed_pid": spec.claimed_pid,
                   "label": spec.label}
                  for spec in plan.specs],
    }


class Recording:
    """One recorded run: a validated payload dict plus typed access.

    Construct with :meth:`build` (from a finished :class:`Recorder`)
    or :meth:`load` / :meth:`loads` (from disk, checksum-verified).
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, object]):
        self.payload = payload

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, point, recorder: Recorder,
              result: Optional[SimulationResult],
              halted: Optional[str] = None,
              fault_plan=None, fault_policy: Optional[str] = None,
              perturbation: Optional[Dict[str, str]] = None,
              timings: Optional[Dict[str, float]] = None
              ) -> "Recording":
        from ..config import config_to_dict
        from ..sim.sweep import ENGINE_VERSION, point_key
        config_payload = config_to_dict(point.config)
        payload: Dict[str, object] = {
            "kind": "repro-recording",
            "schema_version": RECORDING_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "fingerprint": point_key(point),
            "workload": {"name": point.workload,
                         "cpus": point.config.num_processors,
                         "scale": point.scale,
                         "seed": point.seed},
            "config": config_payload,
            "events": recorder.log.columns(),
            "events_total": recorder.log.total_recorded,
            "snapshots": recorder.snapshots,
            "snapshot_every": recorder.snapshot_every,
            "result": None if result is None else {
                "cycles": result.cycles,
                "per_cpu_cycles": list(result.per_cpu_cycles),
                "stats": dict(result.stats)},
            "halted": halted,
            "fault_plan": None if fault_plan is None
            else _plan_to_dict(fault_plan, fault_policy),
            "perturbation": perturbation,
            "timings": dict(timings) if timings else {},
        }
        payload["checksum"] = _checksum(cls._core(payload))
        return cls(payload)

    @staticmethod
    def _core(payload: Dict[str, object]) -> Dict[str, object]:
        """The checksummed (and diffed) subset: everything but the
        checksum itself and the wall-clock timings."""
        return {name: value for name, value in payload.items()
                if name not in ("checksum", "timings")}

    # -- persistence ---------------------------------------------------

    def to_bytes(self) -> bytes:
        return (json.dumps(self.payload, **_DUMP_KWARGS) + "\n"
                ).encode("utf-8")

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def loads(cls, data: Union[str, bytes],
              source: str = "<recording>") -> "Recording":
        try:
            payload = json.loads(data)
        except ValueError as exc:
            raise TraceError(
                f"{source} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or \
                payload.get("kind") != "repro-recording":
            raise TraceError(
                f"{source} is not a repro recording "
                "(missing kind: repro-recording)")
        version = payload.get("schema_version")
        if version != RECORDING_SCHEMA_VERSION:
            raise TraceError(
                f"{source} has recording schema version {version!r}; "
                f"this build reads version {RECORDING_SCHEMA_VERSION}")
        stored = payload.get("checksum")
        if stored != _checksum(cls._core(payload)):
            raise TraceError(
                f"{source} failed its checksum — truncated or "
                "hand-edited recording")
        return cls(payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Recording":
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise TraceError(
                f"cannot read recording {path}: {exc}") from None
        return cls.loads(data, source=str(path))

    # -- typed access ---------------------------------------------------

    @property
    def fingerprint(self) -> str:
        return self.payload["fingerprint"]

    @property
    def workload(self) -> Dict[str, object]:
        return self.payload["workload"]

    @property
    def snapshots(self) -> List[Dict[str, object]]:
        return self.payload["snapshots"]

    @property
    def snapshot_every(self) -> int:
        return self.payload.get("snapshot_every", 1)

    @property
    def halted(self) -> Optional[str]:
        return self.payload.get("halted")

    @property
    def perturbation(self) -> Optional[Dict[str, str]]:
        return self.payload.get("perturbation")

    @property
    def events_total(self) -> int:
        return self.payload["events_total"]

    @property
    def cycles(self) -> Optional[int]:
        result = self.payload.get("result")
        return None if result is None else result["cycles"]

    def events(self) -> Iterator[TraceEvent]:
        """The recorded event stream, oldest first."""
        columns = self.payload["events"]
        for row in zip(columns["kind"], columns["cycle"],
                       columns["dur"], columns["cpu"], columns["a0"],
                       columns["a1"], columns["a2"]):
            yield TraceEvent(*row)

    def final_stats(self) -> Dict[str, int]:
        """Final counter values: the result's, or (for a halted run)
        the cumulative value of the last snapshot."""
        result = self.payload.get("result")
        if result is not None:
            return dict(result["stats"])
        cumulative: Dict[str, int] = {}
        for snapshot in self.snapshots:
            cumulative.update(snapshot["counters"])
        return cumulative

    def point(self):
        """Rebuild the :class:`~repro.sim.sweep.SweepPoint` this
        recording captured."""
        from ..config import config_from_dict
        from ..sim.sweep import SweepPoint
        workload = self.payload["workload"]
        config = config_from_dict(self.payload["config"])
        return SweepPoint(workload=workload["name"], config=config,
                          scale=workload["scale"],
                          seed=workload["seed"])

    def to_result(self) -> SimulationResult:
        """The recorded final result; raises for halted runs."""
        result = self.payload.get("result")
        if result is None:
            raise TraceError(
                "recording has no final result (run halted: "
                f"{self.halted})")
        workload = self.payload["workload"]
        return SimulationResult(
            workload=workload["name"], num_cpus=workload["cpus"],
            cycles=result["cycles"],
            per_cpu_cycles=list(result["per_cpu_cycles"]),
            stats=dict(result["stats"]))

    def core_equal(self, other: "Recording") -> bool:
        """True when the two recordings captured the same run: same
        events, snapshots, result and halt state (fingerprint,
        perturbation label and timings are metadata, not behavior)."""
        mine, theirs = self.payload, other.payload
        return all(mine.get(name) == theirs.get(name)
                   for name in ("events", "snapshots", "result",
                                "halted"))


def record_run(point, snapshot_every: int = 1,
               fault_plan=None, fault_policy: str = "rekey-replay",
               perturbation: Optional[Dict[str, str]] = None,
               timings: Optional[Dict[str, float]] = None
               ) -> Recording:
    """Run one sweep point with a :class:`Recorder` attached.

    The run goes through :func:`repro.sim.checkpoint.fork_point`
    (cold: no snapshot, no store), the driver fault-campaign cells and
    recorded sweep points take too. A non-empty ``fault_plan``
    additionally arms a
    :class:`~repro.faults.injector.FaultInjector`; a ``halt``-policy
    recovery that aborts the run is captured as a halted recording
    (``result: null``) rather than raised. Pass ``timings`` (e.g.
    ``PhaseTimer.as_dict()``) to embed wall-clock phases — they are
    excluded from the checksum and from diffs, but embedding them
    still breaks byte-identity between repeat recordings, so the
    default leaves them out.
    """
    from ..sim.checkpoint import fork_point
    run = fork_point(point, None, recorded=True, plan=fault_plan,
                     policy=fault_policy, snapshot_every=snapshot_every)
    return Recording.build(point, run.recorder, run.result,
                           halted=run.halted, fault_plan=fault_plan,
                           fault_policy=(None if fault_plan is None
                                         else fault_policy),
                           perturbation=perturbation, timings=timings)
