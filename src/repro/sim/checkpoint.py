"""Checkpoint/fork execution: share simulation prefixes across points.

Sensitivity sweeps are prefix-dominated: the points of a scale axis
(or the cells of a fault campaign, or repeated tenant submissions to
the serve plane) run the *same* deterministic simulation up to the
moment a single parameter diverges, then re-pay that shared warm-up
per point. This module factors the shared part out:

- :func:`capture` pickles a **versioned machine snapshot** — the
  whole :class:`~repro.smp.system.SmpSystem` (caches + MESI state,
  SENSS masks/groups/SHUs, memprotect Merkle digests + pad caches,
  the StatsRegistry with its registered flushers, any attached
  observers/recorders) plus the scheduler state ``(clocks, cursors)``
  and the engine's raw hit counters. The scheduler heap is *derived*
  state (``repro.smp.fastpath`` rebuilds it from clocks and cursors),
  so a restored run continues bit-identically.
- :func:`restore` + :func:`fork_point` continue a target point from a
  snapshot; forked results — and recordings taken through a forked
  run — are bit-identical to cold runs (pinned by
  tests/sim/test_checkpoint.py). :func:`fork_point` is the one run
  driver — chain, sweep and serve points, fault-campaign cells (which
  never emit a snapshot) and ``record_run`` — and releases every
  machine it ran.
- :class:`CheckpointStore` is the disk-backed, LRU-bounded store next
  to the :class:`~repro.sim.sweep.ResultCache` (both are key and
  encoding schemes over one :class:`~repro.sim.store.BlobStore`);
  :func:`run_chain` executes a *family* of scale-axis points
  smallest→largest, emitting a checkpoint at each point's
  first-trace-exhaustion instant (the last state shared with every
  larger scale) and forking each successor from the best one.
- :func:`run_forked` is what :class:`~repro.sim.sweep.PointRunner`
  calls for a forked or recorded point — in sweeps, chains and the
  serve plane alike: it picks the deepest valid stored snapshot
  (:meth:`CheckpointStore.best`, the one selection rule; for a
  campaign cell, the deepest the campaign's clean prefix stored
  before its trigger) and forks from it.
- :func:`start_state` is the one start rule — of :func:`fork_point`
  and of that clean prefix: restore the chosen snapshot if it
  validates and restores, else start a fresh machine.

Soundness is checked, not assumed: a snapshot records a sha256
digest of each CPU's *consumed trace prefix* (write flags, addresses,
gaps up to the cursor). A fork validates those digests against the
target point's own traces and falls back to a cold run on any
mismatch — so workloads whose traces are not prefix-stable under
scale (fft reshapes per-phase loops with scale) are never silently
mis-forked, they just gain nothing. The family fingerprint
(:func:`family_key`) additionally pins workload name, seed, the full
config, :data:`~repro.sim.sweep.ENGINE_VERSION`
and :data:`CHECKPOINT_VERSION`, so any semantic change invalidates
the store wholesale.

Trust model: snapshots are **pickles**, read back by a restricted
unpickler (:func:`restore`). Its ``find_class`` admits only classes
defined in ``repro`` modules — minus the modules that touch files,
processes or sockets — and a named list of stdlib globals derived
from real snapshots. ``builtins.getattr``, which every snapshot names
because bound methods pickle as ``getattr(obj, name)``, maps to a
guard that only binds a non-dunder method of an admitted instance.
A tampered file can therefore not run code: it fails to restore, the
point runs cold and a store quarantines the file. It can still
describe a wrong machine — the blob's sha256 sits next to it in the
same file, so it catches corruption, not tampering — so stores should
still live in directories the local user controls, the trust domain
of the ResultCache (both sit under ``.benchmarks/`` by default).
Snapshots are not a wire format; the serve plane never accepts them
from clients, it only shares a store across its own workers.

Forks execute on the same resumable loop as every other run
(:func:`repro.smp.fastpath._run_loop`), so a forked result is the
cold result by construction.
"""

from __future__ import annotations

import array
import functools
import hashlib
import io
import json
import pickle
import types
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import config_to_dict
from ..errors import CheckpointError, ReproError
from ..smp.fastpath import _finish_run, _run_loop, new_counters
from ..smp.metrics import SimulationResult
from ..smp.trace import Workload
from .store import BlobStore, sha256
from .sweep import (ENGINE_VERSION, PointRunner, RecordingStore,
                    ResultCache, SweepPoint, build_system, content_key,
                    point_key)

#: Bump when the snapshot payload or meta layout changes — or when a
#: soundness fix must bust stores written by older code; snapshots
#: from other versions are never restored (they miss on family_key and
#: fail validates_against).
#: History: 1 = initial format; 2 = same layout, invalidates stores
#: that may hold seam snapshots poisoned by pre-fix same-scale resumes
#: (a resumed run used to re-emit at a *later* exhaustion under the
#: same scale tag — see fork_point's seam rule); 3 = pickled machines
#: no longer carry an engine-backend selector or ``config.engine``
#: (older pickles may reference the deleted backend-registry module);
#: 4 = cache tag stores pickle as compact columns (blocks and LRU ticks
#: as ``array('q')``, one state byte per way) and rebuild their block
#: index on load; the MESI remote lists hold caches, not set dicts;
#: 5 = a recorded machine's recorder keeps its events in one
#: ``EventLog`` (seven words per event in one ``array('q')``), not in
#: seven per-field columns; 6 = a stats registry holds its counters as
#: plain ints in one dict (no ``Counter`` objects), and the coherence
#: protocol and tracer carry no snoop-pairing state.
CHECKPOINT_VERSION = 6

#: First line of every checkpoint file; readable without unpickling.
MAGIC = b"repro-checkpoint 1\n"

DEFAULT_CHECKPOINT_DIR = Path(".benchmarks") / "checkpoints"


def family_key(point: SweepPoint, recorded: bool = False) -> str:
    """Content hash of everything a snapshot's prefix depends on.

    Like :func:`~repro.sim.sweep.point_key` but **excluding scale** —
    the whole point is that different scales of one (workload, seed,
    config) family share prefixes. ``recorded`` partitions the space:
    a snapshot taken with a Recorder attached carries the recorder
    inside the pickled machine, so it must never be forked into a
    plain (unrecorded) run, and vice versa. ``armed`` (a point with a
    fault plan, of any content) partitions it again: such snapshots
    carry an injector, which a plain run must not inherit and a cell
    must not lack (a fresh one counts its streams from zero).
    """
    payload = {
        "engine": ENGINE_VERSION,
        "checkpoint": CHECKPOINT_VERSION,
        "workload": point.workload,
        "seed": point.seed,
        "recorded": bool(recorded),
        "config": config_to_dict(point.config),
    }
    if point.plan is not None:
        payload["armed"] = True
    return content_key(payload)


def trace_digests(workload: Workload, cursors: Sequence[int]
                  ) -> List[str]:
    """Per-CPU sha256 over the consumed trace prefix columns.

    Machine-local (array endianness/itemsize are the platform's) —
    like the store itself, digests are not a wire format.
    """
    digests = []
    for cpu in range(workload.num_cpus):
        writes, addresses, gaps = workload.traces[cpu].columns()
        n = cursors[cpu]
        digest = hashlib.sha256()
        digest.update(memoryview(writes)[:n])
        digest.update(memoryview(addresses)[:n])
        digest.update(memoryview(gaps)[:n])
        digests.append(digest.hexdigest())
    return digests


@dataclass
class MachineSnapshot:
    """One captured machine state: JSON meta + opaque pickle blob."""

    meta: Dict[str, object]
    blob: bytes

    @property
    def family(self) -> str:
        return str(self.meta["family"])

    @property
    def tag(self) -> str:
        return str(self.meta["tag"])

    @property
    def accesses(self) -> int:
        return int(self.meta["accesses"])


def capture(system, workload: Workload, point: SweepPoint,
            clocks: Sequence[int], cursors: Sequence[int], counters,
            tag: str, recorded: bool = False,
            extra: Optional[Dict[str, object]] = None
            ) -> MachineSnapshot:
    """Snapshot a paused run (see the resume contract in
    ``repro.smp.fastpath``). Serializes immediately — the live
    machine keeps mutating after this returns."""
    payload = {
        "system": system,
        "clocks": list(clocks),
        "cursors": list(cursors),
        "counters": [list(column) for column in counters],
    }
    blob = pickle.dumps(payload, protocol=4)
    meta = {
        "version": CHECKPOINT_VERSION,
        "engine": ENGINE_VERSION,
        "family": family_key(point, recorded=recorded),
        "workload": point.workload,
        "scale": point.scale,
        "seed": point.seed,
        "cpus": workload.num_cpus,
        "tag": str(tag),
        "cursors": list(cursors),
        "accesses": int(sum(cursors)),
        "digests": trace_digests(workload, cursors),
        "recorded": bool(recorded),
        "blob_sha256": sha256(blob),
        "extra": dict(extra or {}),
    }
    return MachineSnapshot(meta=meta, blob=blob)


def validates_against(meta: Dict[str, object],
                      workload: Workload) -> bool:
    """True when ``workload``'s traces start with the snapshot's
    consumed prefix — the condition under which a fork is sound."""
    if meta.get("version") != CHECKPOINT_VERSION \
            or meta.get("engine") != ENGINE_VERSION:
        return False
    if meta.get("cpus") != workload.num_cpus:
        return False
    cursors = list(meta.get("cursors") or ())
    digests = list(meta.get("digests") or ())
    if len(cursors) != workload.num_cpus \
            or len(digests) != workload.num_cpus:
        return False
    for cpu in range(workload.num_cpus):
        if cursors[cpu] > len(workload.accesses_for(cpu)):
            return False
    return trace_digests(workload, cursors) == digests


#: The stdlib globals a snapshot may name besides ``builtins.getattr``:
#: every global in snapshots of baseline, SENSS, mask-limited,
#: integrated, recorded and fault-campaign machines, listed with
#: ``pickletools`` (tests/sim/test_checkpoint.py re-derives the list).
_STDLIB_GLOBALS = {
    ("collections", "OrderedDict"): OrderedDict,
    ("array", "array"): array.array,
    ("array", "_array_reconstructor"): array._array_reconstructor,
}

#: repro modules (and packages) whose classes touch files, processes or
#: sockets, and the one such class elsewhere. No machine holds one.
_IO_MODULES = ("repro.chaos", "repro.cli", "repro.serve",
               "repro.sim.checkpoint", "repro.sim.store",
               "repro.sim.sweep", "repro.workloads.tracefile")
_IO_CLASSES = {("repro.obs.recording", "Recording")}


def _admitted_name(module: str, name: str) -> bool:
    """May a snapshot name ``module.name``? Only a top-level class
    name in a ``repro`` module outside :data:`_IO_MODULES`."""
    parts = module.split(".")
    return (parts[0] == "repro"
            and not any(part.startswith("__") for part in parts)
            and not any(module == io_module
                        or module.startswith(io_module + ".")
                        for io_module in _IO_MODULES)
            and (module, name) not in _IO_CLASSES
            and name.isidentifier() and not name.startswith("__"))


@functools.lru_cache(maxsize=256)
def _admitted_class(cls) -> bool:
    return (isinstance(cls, type)
            and _admitted_name(cls.__module__, cls.__qualname__))


def _guarded_getattr(obj, name):
    """``builtins.getattr`` as snapshots use it: rebind a pickled
    bound method. Binds only a plain function defined on an admitted
    repro class to an instance of it, under a non-dunder name."""
    if not (_admitted_class(type(obj)) and isinstance(name, str)
            and not name.startswith("__")
            and isinstance(getattr(type(obj), name, None),
                           types.FunctionType)):
        raise pickle.UnpicklingError(
            f"snapshot binds a forbidden attribute {name!r} of "
            f"{type(obj).__qualname__}")
    return types.MethodType(getattr(type(obj), name), obj)


#: every global the unpickler has admitted, so each repro class is
#: imported and checked once per process, not once per restore
_ADMITTED = {("builtins", "getattr"): _guarded_getattr, **_STDLIB_GLOBALS}


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickles machine snapshots and nothing else (module
    docstring, trust model)."""

    def find_class(self, module: str, name: str):
        found = _ADMITTED.get((module, name))
        if found is None and _admitted_name(module, name):
            cls = super().find_class(module, name)
            if isinstance(cls, type) and \
                    (cls.__module__, cls.__qualname__) == (module, name):
                found = _ADMITTED[(module, name)] = cls
        if found is None:
            raise pickle.UnpicklingError(
                f"snapshot names a forbidden global {module}.{name}")
        return found


def restore(snapshot: MachineSnapshot):
    """Unpickle a snapshot into ``(system, clocks, cursors, counters)``.

    Raises :class:`~repro.errors.CheckpointError` on a corrupt blob
    and on one naming a global the restricted unpickler refuses
    (module docstring, trust model) — before any of it runs.
    """
    blob = snapshot.blob
    expected = snapshot.meta.get("blob_sha256")
    if expected != sha256(blob):
        raise CheckpointError(
            f"checkpoint blob checksum mismatch (tag "
            f"{snapshot.meta.get('tag')!r})")
    try:
        payload = _SnapshotUnpickler(io.BytesIO(blob)).load()
        system = payload["system"]
        clocks = list(payload["clocks"])
        cursors = list(payload["cursors"])
        counters = tuple(list(column)
                         for column in payload["counters"])
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint blob does not unpickle: "
            f"{type(exc).__name__}: {exc}")
    if len(counters) != 4:
        raise CheckpointError("checkpoint counters malformed")
    return system, clocks, cursors, counters


def _decode_meta(handle) -> Dict[str, object]:
    """The magic line and JSON meta line of a checkpoint file."""
    if handle.readline() != MAGIC:
        raise ValueError("bad magic")
    meta = json.loads(handle.readline().decode())
    if not isinstance(meta, dict):
        raise ValueError("meta is not an object")
    return meta


def _decode_snapshot(handle) -> MachineSnapshot:
    meta = _decode_meta(handle)
    blob = handle.read()
    if meta.get("blob_sha256") != sha256(blob):
        raise ValueError("blob checksum mismatch")
    return MachineSnapshot(meta=meta, blob=blob)


class CheckpointStore(BlobStore):
    """Disk-backed snapshot store, sibling of the ResultCache over the
    same :class:`~repro.sim.store.BlobStore`.

    Entries are ``<family>-<tag>.ckpt`` files: a magic line, one JSON
    meta line (readable without touching the pickle), then the blob,
    whose sha256 the meta carries and every load verifies. Atomic
    publish (concurrent workers and threads of one sweep/serve plane
    may share a store), ``.corrupt`` quarantine of a file failing
    magic, meta or checksum, and the ``max_mb`` LRU budget are the
    BlobStore's; a file :func:`restore` refuses is quarantined too
    (:meth:`quarantine`). The store keeps only snapshots: whether a
    point forked is reported exactly, per point, by :func:`run_forked`.
    """

    SUFFIX = ".ckpt"

    def __init__(self, root: Union[str, Path] = DEFAULT_CHECKPOINT_DIR,
                 max_mb: Optional[float] = None):
        super().__init__(root, max_mb)

    def _path(self, family: str, tag: str) -> Path:
        return self.root / f"{family}-{tag}{self.SUFFIX}"

    def store(self, snapshot: MachineSnapshot) -> Path:
        path = self._path(snapshot.family, snapshot.tag)
        self._publish(path, MAGIC
                      + json.dumps(snapshot.meta, sort_keys=True).encode()
                      + b"\n" + snapshot.blob)
        self.gc()
        return path

    def load(self, family: str, tag: str) -> Optional[MachineSnapshot]:
        return self._read(self._path(family, tag), _decode_snapshot)

    def metas(self, family: str) -> List[Dict[str, object]]:
        """Meta lines of every entry in ``family`` (blob untouched)."""
        metas = [self._read(path, _decode_meta, touch=False)
                 for path in self._paths(f"{family}-")]
        return [meta for meta in metas if meta is not None]

    def best(self, family: str, workload: Workload, plan=None
             ) -> Optional[MachineSnapshot]:
        """The deepest stored snapshot of ``family`` whose prefix
        validates against ``workload``, or None (run cold) — the one
        selection rule. Candidates (meta lines) are tried deepest first,
        ties broken by tag, and the first that validates *and* loads
        wins; only its blob is read. With a fault ``plan``, a candidate
        whose injector cursors (its ``extra`` meta) are past some
        spec's trigger is skipped: the fault must still be ahead.

        Validation is lazy: each check hashes the candidate's whole
        consumed prefix, so validating every candidate of a long scale
        chain up front would cost quadratically in chain length — and
        the deepest candidate is the one that validates in every
        non-corrupt case anyway.
        """
        metas = self.metas(family)
        if plan is not None:
            from ..faults.injector import stream_position
            # A cursor equal to the trigger still precedes the fault.
            metas = [meta for meta in metas
                     if all(stream_position(meta["extra"], spec)
                            <= spec.trigger for spec in plan)]
        for meta in sorted(metas, key=lambda meta: (
                -int(meta.get("accesses", 0)), str(meta.get("tag")))):
            if validates_against(meta, workload):
                snapshot = self.load(family, str(meta.get("tag")))
                if snapshot is not None:
                    return snapshot
        return None

    def quarantine(self, snapshot: MachineSnapshot) -> None:
        """Rename aside the entry of a snapshot that passed its
        checksum but that :func:`restore` refused, so no later
        :meth:`best` chooses it again."""
        self._quarantine(self._path(snapshot.family, snapshot.tag))

    def stats(self) -> Dict[str, int]:
        """Snapshot count and total bytes on disk."""
        entries = self._entries()
        return {"count": len(entries),
                "bytes": sum(size for _mtime, size, _path in entries)}


def _scale_tag(scale: float) -> str:
    return format(float(scale), "g")


def _generate(point: SweepPoint) -> Workload:
    from ..workloads.registry import generate
    return generate(point.workload, point.config.num_processors,
                    scale=point.scale, seed=point.seed)


def start_state(point: SweepPoint, workload: Workload,
                snapshot: Optional[MachineSnapshot] = None,
                recorded: bool = False,
                store: Optional[CheckpointStore] = None,
                snapshot_every: int = 1):
    """The one start rule of every run from a start state:
    ``(forked, (system, clocks, cursors, counters))``.

    The state is restored from ``snapshot`` when its prefix validates
    against ``workload`` and :func:`restore` accepts it; otherwise it
    is a cold machine at cycle zero, with a recorder attached when
    ``recorded`` — stats snapshots every ``snapshot_every``-th
    authentication checkpoint (a restored recorded machine carries
    its own). A snapshot that validates but is refused is quarantined
    in ``store``, the store it was read from.
    """
    if snapshot is not None and validates_against(snapshot.meta,
                                                  workload):
        try:
            return True, restore(snapshot)
        except CheckpointError:
            if store is not None:
                store.quarantine(snapshot)
    system = build_system(point.config)
    if recorded:
        from ..obs.recording import Recorder
        Recorder(snapshot_every=snapshot_every).attach(system)
    num_cpus = workload.num_cpus
    return False, (system, [0] * num_cpus, [0] * num_cpus,
                   new_counters(num_cpus))


@dataclass
class ForkOutcome:
    """What :func:`fork_point` did: the result (None when the run
    ``halted``, as ``"<class>: <message>"``), whether it forked from a
    snapshot and emitted one, the armed plan's finalized scoreboard
    and a recorded run's recorder (its Recording's source)."""

    result: Optional[SimulationResult]
    forked: bool
    emitted: bool
    halted: Optional[str]
    scoreboard: Optional[object]
    recorder: Optional[object]


def fork_point(point: SweepPoint,
               snapshot: Optional[MachineSnapshot],
               workload: Optional[Workload] = None,
               store: Optional[CheckpointStore] = None,
               recorded: bool = False,
               snapshot_every: int = 1) -> ForkOutcome:
    """Run ``point`` to completion, from ``snapshot`` if it validates,
    and release the machine: the one run driver.

    ``forked`` is False when the snapshot was absent, failed digest
    validation or failed to :func:`restore`, and the run went cold
    (:func:`start_state`, which also attaches the recorder). The
    point's fault ``plan`` is armed under its ``policy``
    (:meth:`~repro.faults.injector.FaultInjector.arm_on`), and a
    recovery that halts the run is reported as ``halted``; without a
    plan every error propagates.

    With a ``store``, a snapshot the run refused is quarantined there,
    and — for a run without a plan, since a faulted state must never
    enter a store — a new snapshot is emitted at the run's
    first-trace-exhaustion instant, tagged by this point's scale,
    extending the family's prefix chain for larger scales —
    **unless** some cursor already sits at its trace end when the run
    starts (e.g. resuming from this scale's own seam snapshot): the
    run's next exhaustion event is then a *later* one, not the
    family-shared seam, so emitting would overwrite the valid same-tag
    snapshot with a state no cold run of a larger scale ever passes
    through. In that case nothing is emitted; the seam for this scale
    is already stored.
    """
    if workload is None:
        workload = _generate(point)
    forked, (system, clocks, cursors, counters) = start_state(
        point, workload, snapshot, recorded, store, snapshot_every)

    # Seam rule (docstring above): a cursor already at its trace end
    # means the loop's on_first_exhaustion fires at a later, non-seam
    # exhaustion — reachable via serve resubmission of one scale or a
    # chain retry after a crash between snapshot emit and cache store.
    # Emitting there would poison the stored seam snapshot.
    past_seam = any(
        cursors[cpu] >= len(workload.accesses_for(cpu))
        for cpu in range(workload.num_cpus))

    emit = None
    emitted = []
    if store is not None and not past_seam and point.plan is None:
        def emit() -> None:
            store.store(capture(system, workload, point, clocks,
                                cursors, counters,
                                tag=_scale_tag(point.scale),
                                recorded=recorded))
            emitted.append(True)

    # Recorder first (fresh, or riding inside the snapshot), injector
    # second: its inject/detect events route through system._obs.
    injector = None
    if point.plan is not None:
        from ..faults.injector import FaultInjector
        injector = FaultInjector.arm_on(system, point.plan, point.policy)
    result = halted = None
    try:
        _run_loop(system, workload, clocks, cursors, counters,
                  on_first_exhaustion=emit)
        result = _finish_run(system, workload, clocks, counters)
    except ReproError as exc:
        if injector is None:
            raise
        halted = f"{type(exc).__name__}: {exc}"
    finally:
        recorder = system._obs if recorded else None
        # Free the machine now, not at the next full collection:
        # dropped machines are cyclic garbage and would pile up.
        system.release()
    return ForkOutcome(
        result=result, forked=forked, emitted=bool(emitted),
        halted=halted, recorder=recorder,
        scoreboard=None if injector is None else injector.finalize())


def run_chain(points: Sequence[SweepPoint], store: CheckpointStore,
              cache: Optional[ResultCache] = None,
              record_dir: Optional[Union[str, Path]] = None
              ) -> List[Tuple[Optional[SimulationResult], float,
                              Optional[str]]]:
    """Execute one family of points, sharing prefixes through ``store``.

    The caller orders points smallest scale first (see
    ``repro.sim.sweep._family_units``); each point forks from the
    deepest stored snapshot that validates against its traces and
    emits its own first-exhaustion snapshot for its successors. One
    point failing never aborts the chain — later points still fork
    from whatever snapshots exist. With a ``cache``, each point's
    result is stored as soon as it exists, so a chain killed halfway
    keeps both the results and the on-disk snapshots of its first
    life. This is the loop ``run_sweep`` runs for every unit
    (:meth:`~repro.sim.sweep.PointRunner.run_all`).

    Returns ``[(result | None, seconds, error | None), ...]`` in
    input order.
    """
    return [row[:3] for row in PointRunner(
        cache=cache, checkpoints=store,
        record_dir=None if record_dir is None else str(record_dir),
    ).run_all(points)]


def run_forked(point: SweepPoint, store: Optional[CheckpointStore],
               record_dir: Optional[str]
               ) -> Tuple[SimulationResult, Dict[str, int]]:
    """The checkpoint and recording half of
    :class:`~repro.sim.sweep.PointRunner`: returns ``(result,
    counters)``.

    With a ``store``, forks from its deepest valid snapshot
    (:meth:`CheckpointStore.best`; cold when none validates), emits
    this point's seam snapshot, and reports ``serve.checkpoint_*``
    counter deltas. With ``record_dir``, a recorder rides in the
    machine (pickled with the prefix, appending through the tail), so
    the recording covers the run from cycle zero — byte-identical to a
    cold recorded run — and is published atomically to the
    :class:`~repro.sim.sweep.RecordingStore` in ``record_dir``, under
    the result cache's key.

    A point with a fault plan forks only from before its triggers and
    its result carries a ``faults`` section (``cycles == -1``: halted).
    """
    recorded = record_dir is not None
    workload = _generate(point)
    snapshot = None
    if store is not None:
        snapshot = store.best(family_key(point, recorded=recorded),
                              workload, plan=point.plan)
    outcome = fork_point(point, snapshot, workload=workload, store=store,
                         recorded=recorded)
    result = outcome.result
    if recorded:
        from ..obs.recording import Recording
        recording = Recording.build(point, outcome.recorder, result,
                                    halted=outcome.halted)
        RecordingStore(record_dir).store(point_key(point), recording)
        if result is not None:
            result = recording.to_result()
    if point.plan is not None:
        if result is None:
            result = SimulationResult(point.workload, workload.num_cpus,
                                      cycles=-1, per_cpu_cycles=[])
        result.faults = {**outcome.scoreboard.as_dict(),
                         "halted": outcome.halted}
    if store is None:
        return result, {}
    return result, {
        "serve.checkpoint_hits": int(outcome.forked),
        "serve.checkpoint_misses": int(not outcome.forked),
        "serve.checkpoint_stores": int(outcome.emitted),
    }
