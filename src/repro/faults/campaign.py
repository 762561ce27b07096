"""Fault campaigns: the kind x policy detection matrix.

``run_campaign`` simulates one workload once per (fault kind, recovery
policy) cell on a miss-heavy secured machine — small L2 so the bus and
memory paths actually carry traffic, short authentication interval so
the MAC check fires often enough to bound detection latency — and
reduces the scoreboards into a JSON-ready report. ``python -m repro
faults`` is a thin CLI over it; CI runs it as the fault-matrix smoke
job and fails on any undetected fault.

Every cell is identical up to its fault trigger, so with ``fork=True``
(the default) the campaign simulates the **clean prefix once**, under
a :class:`~repro.faults.injector.FaultInjector` with an empty plan
(the injector alone counts the fault streams), pausing every few
thousand accesses to capture in-memory machine snapshots
(``repro.sim.checkpoint``) labelled with the injector's cursors. Each
cell forks from the deepest snapshot that still precedes its trigger
and re-arms the prefix injector the restored machine carries with its
own plan and policy — results, scoreboards and recordings stay
bit-identical to cold runs (pinned by tests/sim/test_checkpoint.py).
Cells run through :func:`repro.sim.checkpoint.fork_point` with no
store, like every point that starts from a snapshot: cells whose
trigger falls before the first snapshot, or whose snapshot fails to
restore, simply run cold, and no cell emits a snapshot.

``verify_identity`` is the bit-identity half of the acceptance
criterion: a system with an injector attached whose plan never
triggers must produce results identical to an untouched system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import KB, SystemConfig, e6000_config
from ..errors import ReproError
from .injector import FaultInjector, stream_position
from .plan import FaultKind, FaultPlan, FaultSpec
from .recovery import HALT, POLICIES, REKEY_REPLAY

#: stream index each kind's default fault triggers on — early enough
#: that every miss-heavy smoke run reaches it, late enough that the
#: machinery it perturbs (masks, pads, tree nodes) is warmed up.
DEFAULT_TRIGGER = {
    FaultKind.DROP: 3,
    FaultKind.REORDER: 3,
    FaultKind.SPOOF: 3,
    FaultKind.BIT_FLIP: 3,
    FaultKind.MASK_DESYNC: 3,
    FaultKind.PAD_CORRUPT: 2,
    FaultKind.SEQ_CORRUPT: 2,
    FaultKind.MERKLE_FLIP: 2,
}


def campaign_config(cpus: int = 4, l2_kb: int = 64,
                    interval: int = 10,
                    num_masks: Optional[int] = 8) -> SystemConfig:
    """The miss-heavy secured machine the campaign runs on."""
    config = e6000_config(num_processors=cpus, l2_mb=1,
                          auth_interval=interval)
    config = config.with_l2_size(l2_kb * KB).with_masks(num_masks)
    return config.with_memprotect(encryption_enabled=True,
                                  integrity_enabled=True)


def default_spec(kind: str, num_cpus: int,
                 trigger: Optional[int] = None) -> FaultSpec:
    """The canonical single fault of a kind for smoke/CI runs."""
    if trigger is None:
        trigger = DEFAULT_TRIGGER[kind]
    if kind == FaultKind.SPOOF:
        return FaultSpec(kind, trigger, claimed_pid=1 % num_cpus)
    if kind == FaultKind.MASK_DESYNC:
        return FaultSpec(kind, trigger, cpu=0)
    if kind in (FaultKind.PAD_CORRUPT, FaultKind.SEQ_CORRUPT):
        return FaultSpec(kind, trigger, cpu=0)
    return FaultSpec(kind, trigger)


def _pick_snapshot(snapshots, spec: FaultSpec):
    """Deepest snapshot strictly before the spec's trigger event.

    ``count <= trigger`` is the soundness condition: counts are
    events-already-happened, the fault fires on event index
    ``trigger``, so equality still precedes the injection.
    """
    usable = [snapshot for snapshot in snapshots
              if stream_position(snapshot.meta["extra"], spec)
              <= spec.trigger]
    if not usable:
        return None
    return max(usable, key=lambda snapshot: snapshot.accesses)


def _simulate_prefix(bench_workload, point, specs: Sequence[FaultSpec],
                     record_diff: bool, chunk: Optional[int] = None):
    """Run the clean (fault-free) prefix once, snapshotting as it goes.

    Returns ``(snapshots, clean_recording)``. Without ``record_diff``
    the run stops as soon as every spec's trigger has passed (no later
    snapshot could be forked from); with it, the run continues to
    completion so its recording replaces the separate clean
    ``record_run`` the un-forked path pays for.
    """
    from ..sim.checkpoint import capture, start_state
    from ..smp.fastpath import _finish_run, _run_loop

    # Recorder first, injector second — as in every cell; both travel
    # inside every captured snapshot.
    _forked, (system, clocks, cursors, counters) = start_state(
        point, bench_workload, recorded=record_diff)
    injector = FaultInjector(FaultPlan()).attach(system)

    if chunk is None:
        chunk = max(512, bench_workload.total_accesses // 12)

    snapshots = []
    running = True
    snapshotting = True
    while running:
        running = _run_loop(system, bench_workload, clocks, cursors,
                            counters, stop_accesses=chunk)
        if snapshotting:
            position = injector.cursors()
            snapshots.append(capture(
                system, bench_workload, point, clocks, cursors,
                counters, tag=f"prefix-{sum(cursors)}",
                recorded=record_diff, extra=position))
            if all(stream_position(position, spec) > spec.trigger
                   for spec in specs):
                snapshotting = False  # nothing later is forkable
                if not record_diff:
                    break

    clean_recording = None
    if record_diff:
        from ..obs.recording import Recording
        result = _finish_run(system, bench_workload, clocks, counters)
        clean_recording = Recording.build(point, system._obs, result)
    system.release()
    return snapshots, clean_recording


def _all_within_interval(entries: Sequence[Dict[str, object]],
                         interval: int) -> bool:
    """Was every detection within one authentication interval?

    MAC-interval detections are measured in the stream the interval
    counts (protected messages), so the bound is ``interval`` plus the
    checkpoint itself. Consultation-triggered mechanisms (own-PID
    snoop, pad coherence, hash verify) fire at the first use of the
    corrupted state; their cycle latency must not exceed one observed
    authentication interval — bounded here by the slowest MAC-interval
    detection in the same matrix (when one is present).
    """
    from .scoreboard import MECH_MAC

    detected = [entry for entry in entries if entry["detected"]]
    mac_cycles = [entry["latency_cycles"] for entry in detected
                  if entry["mechanism"] == MECH_MAC]
    cycle_bound = max(mac_cycles) if mac_cycles else None
    for entry in detected:
        if entry["mechanism"] == MECH_MAC:
            if entry["latency_tx"] > interval + 1:
                return False
        elif cycle_bound is not None and \
                entry["latency_cycles"] > cycle_bound:
            return False
    return True


def run_campaign(kinds: Sequence[str] = FaultKind.ALL,
                 policies: Sequence[str] = (HALT, REKEY_REPLAY),
                 workload: str = "ocean", cpus: int = 4,
                 scale: float = 0.05, seed: int = 0,
                 interval: int = 10,
                 config: Optional[SystemConfig] = None,
                 record_diff: bool = False,
                 fork: bool = True,
                 trigger: Optional[int] = None
                 ) -> Dict[str, object]:
    """One run per (kind, policy) cell; returns the matrix report.

    With ``fork=True`` the shared clean prefix is simulated once and
    every cell forks from the deepest snapshot preceding its trigger
    (module docstring); ``fork=False`` forces the historical
    every-cell-cold behavior. ``trigger`` overrides every kind's
    default trigger index (deep triggers are where forking pays).

    With ``record_diff=True`` the clean (fault-free) run is recorded
    once — in fork mode it *is* the prefix run, not a separate
    simulation — every cell additionally records its faulted run, and
    each entry gains a ``divergence`` summary — where the faulted
    timeline first departs from the clean one and by how much (the
    full machinery is ``repro.obs.diff``; see docs/record_replay.md).
    """
    from ..sim.checkpoint import fork_point
    from ..sim.sweep import SweepPoint
    from ..workloads.registry import generate

    for policy in policies:
        if policy not in POLICIES:
            raise ReproError(f"unknown recovery policy {policy!r}")
    if config is None:
        config = campaign_config(cpus=cpus, interval=interval)
    bench_workload = generate(workload, cpus, scale=scale, seed=seed)
    clean_point = SweepPoint(workload, config, scale=scale, seed=seed)
    cell_specs = {kind: default_spec(kind, cpus, trigger)
                  for kind in kinds}

    snapshots = []
    clean_recording = None
    if fork:
        snapshots, clean_recording = _simulate_prefix(
            bench_workload, clean_point, list(cell_specs.values()),
            record_diff)
    elif record_diff:
        from ..obs.recording import record_run
        clean_recording = record_run(clean_point)

    entries: List[Dict[str, object]] = []
    for kind in kinds:
        for policy in policies:
            spec = cell_specs[kind]
            plan = FaultPlan(specs=(spec,), seed=seed)
            run = fork_point(clean_point, _pick_snapshot(snapshots, spec),
                             bench_workload, recorded=record_diff,
                             plan=plan, policy=policy)
            records = run.scoreboard.records
            record = records[0] if records else None
            entries.append({
                "kind": kind,
                "policy": policy,
                "forked": run.forked,
                "triggered": bool(records),
                "detected": record.detected if record else False,
                "mechanism": record.mechanism if record else None,
                "latency_tx": record.latency_tx if record else -1,
                "latency_cycles": (record.latency_cycles
                                   if record else -1),
                "masked": record.masked if record else False,
                "recovered": record.recovered if record else False,
                "completed": run.halted is None,
                "halted": run.halted is not None,
                "error": run.halted or "",
                "cycles": -1 if run.result is None else run.result.cycles,
                "penalty_cycles": run.scoreboard.penalty_cycles,
            })
            if record_diff:
                entries[-1]["divergence"] = _divergence_summary(
                    clean_recording, clean_point, run, plan, policy)

    detected_all = all(entry["detected"] for entry in entries)
    within_interval = _all_within_interval(entries, interval)
    report = {
        "workload": workload,
        "num_cpus": cpus,
        "scale": scale,
        "seed": seed,
        "auth_interval": interval,
        "kinds": list(kinds),
        "policies": list(policies),
        "entries": entries,
        "all_detected": detected_all,
        "within_interval": within_interval,
        "fork": fork,
        "forked_cells": sum(1 for entry in entries
                            if entry["forked"]),
    }
    if record_diff:
        report["record_diff"] = True
        report["clean_cycles"] = clean_recording.cycles
    return report


def _divergence_summary(clean_recording, clean_point, run,
                        plan: FaultPlan, policy: str
                        ) -> Dict[str, object]:
    """Reduce a cell's diff-vs-clean to the campaign-report fields."""
    from ..obs.diff import diff_recordings
    from ..obs.recording import Recording
    faulted = Recording.build(clean_point, run.recorder, run.result,
                              halted=run.halted, fault_plan=plan,
                              fault_policy=policy)
    diff = diff_recordings(clean_recording, faulted)
    first = diff["first_divergence"]
    summary: Dict[str, object] = {
        "identical": diff["identical"],
        "counters_changed": len(diff["counters"]),
        "cycles_delta": None if diff["cycles"] is None
        else diff["cycles"]["delta"],
    }
    if first is not None:
        side = first["b"] or first["a"]
        summary["first_divergence"] = {
            "index": first["index"],
            "event": side["name"],
            "category": side["category"],
            "cycle": side["cycle"],
            "cpu": side["cpu"],
        }
    return summary


def verify_identity(config: Optional[SystemConfig] = None,
                    workload: str = "ocean", cpus: int = 4,
                    scale: float = 0.05,
                    seed: int = 0) -> Dict[str, object]:
    """No-trigger injector on the run driver (``fork_point``) vs a
    vanilla ``system.run``: must be bit-identical."""
    from ..sim.checkpoint import fork_point
    from ..sim.sweep import SweepPoint, build_system
    from ..workloads.registry import generate

    if config is None:
        config = campaign_config(cpus=cpus)
    bench_workload = generate(workload, cpus, scale=scale, seed=seed)

    vanilla = build_system(config).run(bench_workload)

    # A plan whose trigger index the run never reaches: every hook
    # fires, nothing ever perturbs.
    plan = FaultPlan.single(FaultKind.DROP, trigger=1 << 40)
    run = fork_point(SweepPoint(workload, config, scale=scale,
                                seed=seed), None, bench_workload, plan=plan)
    faulted = run.result

    identical = (vanilla.cycles == faulted.cycles
                 and list(vanilla.per_cpu_cycles)
                 == list(faulted.per_cpu_cycles)
                 and vanilla.stats == faulted.stats)
    return {
        "identical": identical,
        "cycles": vanilla.cycles,
        "cycles_with_hooks": faulted.cycles,
        "untriggered": len(plan) - run.scoreboard.injected,
    }
