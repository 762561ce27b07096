"""Fault campaigns: the kind x policy detection matrix.

``run_campaign`` simulates one workload once per (fault kind, recovery
policy) cell on a miss-heavy secured machine — small L2 so the bus and
memory paths carry traffic, short authentication interval so the MAC
check bounds detection latency — and reduces the scoreboards into a
JSON-ready report. ``python -m repro faults`` is a thin CLI over it;
CI's fault-matrix smoke job fails on any undetected fault.

A cell is a :class:`~repro.sim.sweep.SweepPoint` with a one-fault
plan and a recovery policy. The cells are one
:func:`~repro.sim.sweep.run_sweep` — the executor, failure rule and
retry of every point — and each result's ``faults`` section holds the
cell's scoreboard. Every cell is identical up to its trigger, so with
``fork=True`` the clean prefix runs once, as the *armed* point (an
empty plan: an injector counts the fault streams, nothing fires),
storing a snapshot every few thousand accesses in a temporary
:class:`~repro.sim.checkpoint.CheckpointStore`; each cell forks from
the deepest one still before its trigger
(:meth:`~repro.sim.checkpoint.CheckpointStore.best`) and re-arms the
injector it carries. Reports are byte-identical forked or cold,
pooled or in process (docs/fault_injection.md).

``verify_identity`` is the bit-identity half of the acceptance
criterion: a system with an injector attached whose plan never
triggers must produce results identical to an untouched system.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..config import KB, SystemConfig, e6000_config
from ..errors import ReproError, SweepError
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


def _simulate_prefix(bench_workload, point, specs: Sequence[FaultSpec],
                     record_diff: bool, store,
                     chunk: Optional[int] = None):
    """Run the clean prefix once, as ``point`` armed (an empty plan),
    storing a snapshot every ``chunk`` accesses in ``store``, each
    labelled with the injector's cursors (meta ``extra``).

    Without ``record_diff`` the run stops once every spec's trigger has
    passed (no later snapshot is forkable) and returns None; with it,
    the run completes and returns its recording, which replaces the
    clean ``record_run`` the un-forked path pays for.
    """
    from ..sim.checkpoint import capture, start_state
    from ..smp.fastpath import _finish_run, _run_loop

    armed = replace(point, plan=FaultPlan())
    # Recorder first, injector second — as in every cell; both travel
    # inside every captured snapshot.
    _forked, (system, clocks, cursors, counters) = start_state(
        armed, bench_workload, recorded=record_diff)
    injector = FaultInjector(armed.plan).attach(system)

    if chunk is None:
        chunk = max(512, bench_workload.total_accesses // 12)

    running = True
    snapshotting = True
    while running:
        running = _run_loop(system, bench_workload, clocks, cursors,
                            counters, stop_accesses=chunk)
        if snapshotting:
            position = injector.cursors()
            store.store(capture(
                system, bench_workload, armed, clocks, cursors,
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
    return clean_recording


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

    ``fork=True`` forks every cell from the shared clean prefix
    (module docstring); ``fork=False`` runs every cell cold, with no
    store. ``trigger`` overrides every kind's default trigger index
    (deep triggers are where forking pays).

    With ``record_diff=True`` the clean run is recorded once — in fork
    mode it *is* the prefix run — every cell records into a temporary
    recording store, and each entry gains a ``divergence`` summary:
    where the faulted timeline first departs from the clean one and by
    how much (``repro.obs.diff``; docs/record_replay.md).

    Entries come in (kind, policy) order. A cell that raises or whose
    worker dies is retried on a fresh pool; one that still fails
    raises :class:`~repro.errors.SweepError` naming it.
    """
    from tempfile import TemporaryDirectory

    from ..obs.diff import divergence_summary
    from ..obs.recording import record_run
    from ..sim.checkpoint import CheckpointStore
    from ..sim.sweep import (RecordingStore, SweepPoint, SweepTimings,
                             run_sweep)
    from ..workloads.registry import generate

    for policy in policies:
        if policy not in POLICIES:
            raise ReproError(f"unknown recovery policy {policy!r}")
    if config is None:
        config = campaign_config(cpus=cpus, interval=interval)
    # Generated before any pool starts, so forked workers inherit the
    # family instead of building it.
    bench_workload = generate(workload, cpus, scale=scale, seed=seed)
    clean_point = SweepPoint(workload, config, scale=scale, seed=seed)
    cells = [replace(clean_point, policy=policy, plan=FaultPlan(
                 specs=(default_spec(kind, cpus, trigger),), seed=seed))
             for kind in kinds for policy in policies]

    timings = SweepTimings()
    with TemporaryDirectory(prefix="repro-campaign-") as scratch:
        store_dir = Path(scratch, "checkpoints") if fork else None
        record_dir = Path(scratch, "recordings") if record_diff else None
        clean_recording = None
        if fork:
            clean_recording = _simulate_prefix(
                bench_workload, clean_point,
                [spec for cell in cells for spec in cell.plan],
                record_diff, CheckpointStore(store_dir))
        elif record_diff:
            clean_recording = record_run(clean_point)
        try:
            results = run_sweep(cells, timings=timings,
                                record_dir=record_dir,
                                checkpoint_dir=store_dir)
        except SweepError as exc:
            names = ", ".join(
                f"{cells[failure.index].plan.specs[0].kind}/"
                f"{cells[failure.index].policy}"
                for failure in exc.failures)
            raise SweepError(f"campaign cells {names} failed: {exc}",
                             failures=exc.failures) from None
        entries = [_entry(cell, result, cell.key in timings.forked)
                   for cell, result in zip(cells, results)]
        if record_diff:
            recordings = RecordingStore(record_dir)
            for cell, entry in zip(cells, entries):
                entry["divergence"] = divergence_summary(
                    clean_recording, recordings.load(cell.key))

    report = {
        "workload": workload,
        "num_cpus": cpus,
        "scale": scale,
        "seed": seed,
        "auth_interval": interval,
        "kinds": list(kinds),
        "policies": list(policies),
        "entries": entries,
        "all_detected": all(entry["detected"] for entry in entries),
        "within_interval": _all_within_interval(entries, interval),
        "fork": fork,
        "forked_cells": len(timings.forked),
    }
    if record_diff:
        report["record_diff"] = True
        report["clean_cycles"] = clean_recording.cycles
    return report


def _entry(cell, result, forked: bool) -> Dict[str, object]:
    """A cell's report entry, from its result's ``faults`` section (a
    halted cell's result has ``cycles == -1``)."""
    faults = result.faults
    records = faults["records"]
    record = records[0] if records else {}
    halted = faults["halted"]
    return {
        "kind": cell.plan.specs[0].kind,
        "policy": cell.policy,
        "forked": forked,
        "triggered": bool(records),
        "detected": record.get("detected", False),
        "mechanism": record.get("mechanism"),
        "latency_tx": record.get("latency_tx", -1),
        "latency_cycles": record.get("latency_cycles", -1),
        "masked": record.get("masked", False),
        "recovered": record.get("recovered", False),
        "completed": halted is None,
        "halted": halted is not None,
        "error": halted or "",
        "cycles": result.cycles,
        "penalty_cycles": faults["penalty_cycles"],
    }


def verify_identity(config: Optional[SystemConfig] = None,
                    workload: str = "ocean", cpus: int = 4,
                    scale: float = 0.05,
                    seed: int = 0) -> Dict[str, object]:
    """A cell whose plan never fires (every hook runs, nothing ever
    perturbs) vs a vanilla run: must be bit-identical."""
    from ..sim.sweep import PointRunner, SweepPoint, run_point

    if config is None:
        config = campaign_config(cpus=cpus)
    point = SweepPoint(workload, config, scale=scale, seed=seed)
    vanilla = run_point(point)
    faulted = PointRunner()(replace(point, plan=FaultPlan.single(
        FaultKind.DROP, trigger=1 << 40)))[0]
    return {
        "identical": replace(faulted, faults=None) == vanilla,
        "cycles": vanilla.cycles,
        "cycles_with_hooks": faulted.cycles,
        "untriggered": 1 - faulted.faults["injected"],
    }
