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
  tests/sim/test_checkpoint.py).
- :class:`CheckpointStore` is the disk-backed, LRU-bounded store next
  to the :class:`~repro.sim.sweep.ResultCache`;
  :func:`run_chain` executes a *family* of scale-axis points
  smallest→largest, emitting a checkpoint at each point's
  first-trace-exhaustion instant (the last state shared with every
  larger scale) and forking each successor from the best one.
- :func:`serve_checkpoint_runner` is the serve plane's worker runner:
  a process-global in-memory LRU of hot snapshots over the shared
  disk store, shared across tenants like the result cache.

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

Trust model: snapshots are **pickles** and must only be loaded from
directories the local user controls — the same trust domain as the
ResultCache (both live under ``.benchmarks/`` by default). They are
not a wire format; the serve plane never accepts snapshots from
clients, it only shares a store across its own workers.

Forks execute on the same resumable loop as every other run
(:func:`repro.smp.fastpath._run_loop`), so a forked result is the
cold result by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CheckpointError
from ..smp.fastpath import _finish_run, _run_loop, new_counters
from ..smp.metrics import SimulationResult
from ..smp.trace import Workload, as_columns
from .sweep import (ENGINE_VERSION, ResultCache, SweepPoint,
                    build_system, lru_gc, point_key)

#: Bump when the snapshot payload or meta layout changes — or when a
#: soundness fix must bust stores written by older code; snapshots
#: from other versions are never restored (they miss on family_key and
#: fail validates_against).
#: History: 1 = initial format; 2 = same layout, invalidates stores
#: that may hold seam snapshots poisoned by pre-fix same-scale resumes
#: (a resumed run used to re-emit at a *later* exhaustion under the
#: same scale tag — see fork_point's seam rule); 3 = pickled machines
#: no longer carry an engine-backend selector or ``config.engine``
#: (older pickles may reference the deleted backend-registry module).
CHECKPOINT_VERSION = 3

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
    plain (unrecorded) run, and vice versa.
    """
    payload = {
        "engine": ENGINE_VERSION,
        "checkpoint": CHECKPOINT_VERSION,
        "workload": point.workload,
        "seed": point.seed,
        "recorded": bool(recorded),
        "config": asdict(point.config),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def trace_digests(workload: Workload, cursors: Sequence[int]
                  ) -> List[str]:
    """Per-CPU sha256 over the consumed trace prefix columns.

    Machine-local (array endianness/itemsize are the platform's) —
    like the store itself, digests are not a wire format.
    """
    digests = []
    for cpu in range(workload.num_cpus):
        writes, addresses, gaps = as_columns(workload.accesses_for(cpu))
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
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
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


def restore(snapshot: MachineSnapshot):
    """Unpickle a snapshot into ``(system, clocks, cursors, counters)``.

    Raises :class:`~repro.errors.CheckpointError` on a corrupt blob.
    Only restore snapshots from trusted local stores (module
    docstring) — this executes a pickle.
    """
    blob = snapshot.blob
    expected = snapshot.meta.get("blob_sha256")
    if expected != hashlib.sha256(blob).hexdigest():
        raise CheckpointError(
            f"checkpoint blob checksum mismatch (tag "
            f"{snapshot.meta.get('tag')!r})")
    try:
        payload = pickle.loads(blob)
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


class CheckpointStore:
    """Disk-backed snapshot store, sibling of the ResultCache.

    Entries are ``<family>-<tag>.ckpt`` files: a magic line, one JSON
    meta line (readable without touching the pickle), then the blob.
    Writers stage into a pid-unique temp file and publish with atomic
    ``os.replace`` — concurrent workers of one sweep/serve plane may
    share a store. A file that fails magic, meta, or blob checksum is
    renamed to ``.corrupt`` and treated as a miss.

    ``max_mb`` bounds the store: after every write, oldest-mtime
    entries are evicted until under budget (loads touch mtime, so
    eviction is LRU). Hit/miss/store counts persist best-effort in a
    ``_stats.json`` sidecar — concurrent increments may race and lose
    counts, so the reported hit rate is approximate by design.
    """

    SUFFIX = ".ckpt"

    def __init__(self, root: Union[str, Path] = DEFAULT_CHECKPOINT_DIR,
                 max_mb: Optional[float] = None):
        self.root = Path(root)
        self.max_mb = max_mb
        self.evicted = 0

    def _path(self, family: str, tag: str) -> Path:
        return self.root / f"{family}-{tag}{self.SUFFIX}"

    # -- persistence ----------------------------------------------------

    def store(self, snapshot: MachineSnapshot) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(snapshot.family, snapshot.tag)
        scratch = path.with_suffix(f".tmp.{os.getpid()}")
        data = (MAGIC
                + json.dumps(snapshot.meta, sort_keys=True).encode()
                + b"\n" + snapshot.blob)
        try:
            scratch.write_bytes(data)
            scratch.replace(path)
        finally:
            if scratch.exists():
                try:
                    scratch.unlink()
                except OSError:
                    pass
        self._note("stores")
        self.gc()
        return path

    def _read(self, path: Path) -> Optional[MachineSnapshot]:
        try:
            with path.open("rb") as handle:
                if handle.readline() != MAGIC:
                    raise ValueError("bad magic")
                meta = json.loads(handle.readline().decode())
                blob = handle.read()
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError):
            self._quarantine(path)
            return None
        snapshot = MachineSnapshot(meta=meta, blob=blob)
        if meta.get("blob_sha256") \
                != hashlib.sha256(blob).hexdigest():
            self._quarantine(path)
            return None
        return snapshot

    def load(self, family: str, tag: str) -> Optional[MachineSnapshot]:
        snapshot = self._read(self._path(family, tag))
        if snapshot is None:
            self._note("misses")
            return None
        self._touch(self._path(family, tag))
        self._note("hits")
        return snapshot

    def _quarantine(self, path: Path) -> None:
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            pass

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass

    # -- queries --------------------------------------------------------

    def metas(self, family: str) -> List[Dict[str, object]]:
        """Meta lines of every entry in ``family`` (blob untouched)."""
        if not self.root.is_dir():
            return []
        metas = []
        for path in sorted(self.root.glob(
                f"{family}-*{self.SUFFIX}")):
            try:
                with path.open("rb") as handle:
                    if handle.readline() != MAGIC:
                        continue
                    metas.append(json.loads(
                        handle.readline().decode()))
            except (OSError, ValueError):
                continue
        return metas

    def best(self, family: str, workload: Workload
             ) -> Optional[MachineSnapshot]:
        """The deepest stored snapshot whose prefix validates against
        ``workload``; candidates that fail validation or loading fall
        through to the next-best, then to ``None`` (= run cold).

        Validation is lazy, deepest-first: each check hashes the
        candidate's whole consumed prefix, so validating every entry
        of a long scale chain up front would cost quadratically in
        chain length — and the deepest candidate is the one that
        validates in every non-corrupt case anyway.
        """
        candidates = sorted(
            self.metas(family),
            key=lambda meta: (-int(meta.get("accesses", 0)),
                              str(meta.get("tag"))))
        loads_counted = False
        for meta in candidates:
            if not validates_against(meta, workload):
                continue
            hit = self.load(family, str(meta.get("tag")))
            loads_counted = True
            if hit is not None:
                return hit
        if not loads_counted:
            self._note("misses")  # load() never ran, count the probe
        return None

    # -- bounding + stats ----------------------------------------------

    def gc(self) -> int:
        """Evict oldest entries until under ``max_mb``; returns count."""
        if self.max_mb is None:
            return 0
        evicted = lru_gc(self.root, int(self.max_mb * 1024 * 1024),
                         f"*{self.SUFFIX}")
        self.evicted += evicted
        return evicted

    def _note(self, field: str, delta: int = 1) -> None:
        """Best-effort sidecar counter bump (approximate under races)."""
        path = self.root / "_stats.json"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                payload = {}
            payload[field] = int(payload.get(field, 0)) + delta
            scratch = path.with_suffix(f".tmp.{os.getpid()}")
            scratch.write_text(json.dumps(payload, sort_keys=True))
            scratch.replace(path)
        except OSError:
            pass

    def stats(self) -> Dict[str, object]:
        """Entry count, byte size and (approximate) hit rate."""
        count = 0
        size = 0
        if self.root.is_dir():
            for path in self.root.glob(f"*{self.SUFFIX}"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                count += 1
        try:
            sidecar = json.loads(
                (self.root / "_stats.json").read_text())
        except (OSError, ValueError):
            sidecar = {}
        hits = int(sidecar.get("hits", 0))
        misses = int(sidecar.get("misses", 0))
        probes = hits + misses
        return {
            "count": count,
            "bytes": size,
            "hits": hits,
            "misses": misses,
            "stores": int(sidecar.get("stores", 0)),
            "hit_rate": round(hits / probes, 4) if probes else None,
        }

    def clear(self) -> int:
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob(f"*{self.SUFFIX}"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{self.SUFFIX}")) \
            if self.root.is_dir() else 0


def _scale_tag(scale: float) -> str:
    return format(float(scale), "g")


def _generate(point: SweepPoint) -> Workload:
    from ..workloads.registry import generate
    return generate(point.workload, point.config.num_processors,
                    scale=point.scale, seed=point.seed)


def _fresh_state(point: SweepPoint, workload: Workload,
                 recorded: bool):
    """A cold machine at cycle zero (recorder attached if asked)."""
    system = build_system(point.config)
    if recorded:
        from ..obs.recording import Recorder
        Recorder().attach(system)
    num_cpus = workload.num_cpus
    return (system, [0] * num_cpus, [0] * num_cpus,
            new_counters(num_cpus))


@dataclass
class ForkOutcome:
    """What :func:`fork_point` did: the result, whether the run forked
    from a snapshot (vs. going cold), whether it emitted a new
    snapshot, and the live machine (for recorded runs, its ``_obs``
    is the recorder to build the Recording from)."""

    result: SimulationResult
    forked: bool
    emitted: bool
    system: object


def fork_point(point: SweepPoint,
               snapshot: Optional[MachineSnapshot],
               workload: Optional[Workload] = None,
               store: Optional[CheckpointStore] = None,
               recorded: bool = False,
               hot: Optional["HotSnapshotLRU"] = None) -> ForkOutcome:
    """Run ``point`` to completion, from ``snapshot`` if it validates.

    ``forked`` is False when the snapshot was absent or failed digest
    validation and the run went cold. With a ``store`` (and/or a
    ``hot`` in-memory LRU), a new snapshot is emitted at the run's
    first-trace-exhaustion instant, tagged by this point's scale,
    extending the family's prefix chain for larger scales — **unless**
    some cursor already sits at its trace end when the run starts
    (e.g. resuming from this scale's own seam snapshot): the run's
    next exhaustion event is then a *later* one, not the
    family-shared seam, so emitting would overwrite the valid
    same-tag snapshot with a state no cold run of a larger scale
    ever passes through. In that case nothing is emitted; the seam
    for this scale is already stored.
    """
    if workload is None:
        workload = _generate(point)
    forked = False
    if snapshot is not None and validates_against(snapshot.meta,
                                                  workload):
        system, clocks, cursors, counters = restore(snapshot)
        forked = True
    else:
        system, clocks, cursors, counters = _fresh_state(
            point, workload, recorded)

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
    if (store is not None or hot is not None) and not past_seam:
        def emit() -> None:
            shot = capture(system, workload, point, clocks, cursors,
                           counters, tag=_scale_tag(point.scale),
                           recorded=recorded)
            if store is not None:
                store.store(shot)
            if hot is not None:
                hot.put(shot)
            emitted.append(True)

    _run_loop(system, workload, clocks, cursors, counters,
              on_first_exhaustion=emit)
    result = _finish_run(system, workload, clocks, counters)
    return ForkOutcome(result=result, forked=forked,
                       emitted=bool(emitted), system=system)


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
    from whatever snapshots exist. Cache probe/store happen here,
    worker-side, so a retried chain (e.g. after a mid-fork worker
    kill) resumes from both the finished results and the on-disk
    snapshots of its first life.

    Returns ``[(result | None, seconds, error | None), ...]`` in
    input order.
    """
    recorded = record_dir is not None
    outcomes: List[Tuple[Optional[SimulationResult], float,
                         Optional[str]]] = []
    for point in points:
        # Chaos-harness seam, same as _run_point_timed: a chain run
        # must be killable mid-fork (docs/resilience.md).
        if "REPRO_CHAOS_PLAN" in os.environ:
            from ..chaos.hooks import apply_worker_faults
            apply_worker_faults(point)
        start = time.perf_counter()
        try:
            if cache is not None:
                cached = cache.load(point)
                if cached is not None and (
                        not recorded
                        or (Path(record_dir)
                            / f"{point_key(point)}.rec.json").exists()):
                    outcomes.append(
                        (cached, time.perf_counter() - start, None))
                    continue
            workload = _generate(point)
            snapshot = store.best(
                family_key(point, recorded=recorded), workload)
            outcome = fork_point(point, snapshot, workload=workload,
                                 store=store, recorded=recorded)
            result = outcome.result
            if recorded:
                from ..obs.recording import Recording
                # The recorder travelled inside the machine (pickled
                # with the prefix, appending through the tail), so
                # the recording covers the run from cycle zero —
                # byte-identical to a cold recorded run.
                recorder = outcome.system._obs
                if recorder is None:
                    raise CheckpointError(
                        "recorded chain point finished without a "
                        f"recorder: {point.workload}@{point.scale}")
                recording = Recording.build(point, recorder, result)
                Path(record_dir).mkdir(parents=True, exist_ok=True)
                recording.save(Path(record_dir)
                               / f"{point_key(point)}.rec.json")
                result = recording.to_result()
            if cache is not None:
                cache.store(point, result)
            outcomes.append(
                (result, time.perf_counter() - start, None))
        except Exception as exc:  # captured per point, chain goes on
            outcomes.append(
                (None, 0.0, f"{type(exc).__name__}: {exc}"))
    return outcomes


class HotSnapshotLRU:
    """Bounded in-memory snapshot cache for serve-plane workers.

    One instance lives per worker *process* (module global below) and
    fronts the shared disk store: repeated tenant submissions of the
    same family fork from memory without re-reading or re-unpickling.
    Thread-safe; capacity is a snapshot count, eviction is
    least-recently-used.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], MachineSnapshot]" \
            = OrderedDict()

    def put(self, snapshot: MachineSnapshot) -> None:
        key = (snapshot.family, snapshot.tag)
        with self._lock:
            self._entries[key] = snapshot
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def best(self, family: str, workload: Workload
             ) -> Optional[MachineSnapshot]:
        with self._lock:
            candidates = [snap for (fam, _tag), snap
                          in self._entries.items() if fam == family]
        candidates = [snap for snap in candidates
                      if validates_against(snap.meta, workload)]
        if not candidates:
            return None
        candidates.sort(key=lambda snap: (-snap.accesses, snap.tag))
        hit = candidates[0]
        with self._lock:
            key = (hit.family, hit.tag)
            if key in self._entries:
                self._entries.move_to_end(key)
        return hit

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Per-process hot cache shared by every serve runner call in this
#: worker — intentionally a process global, like an executor's warm
#: interpreter state. Sized by the first call.
_HOT: Optional[HotSnapshotLRU] = None
_HOT_LOCK = threading.Lock()


def _hot_lru(capacity: int) -> HotSnapshotLRU:
    global _HOT
    with _HOT_LOCK:
        if _HOT is None:
            _HOT = HotSnapshotLRU(capacity)
        return _HOT


def serve_checkpoint_runner(checkpoint_dir: str, hot_capacity: int,
                            point: SweepPoint
                            ) -> Tuple[SimulationResult, float,
                                       Dict[str, int]]:
    """Worker runner for the serve plane's checkpoint mode.

    Drop-in for ``repro.sim.sweep._run_point_timed`` (module-level,
    ``functools.partial``-able into process pools) that probes the
    per-process hot LRU, then the shared disk store, forks when a
    prefix validates, and ships ``serve.checkpoint_*`` counter deltas
    back for ``/v1/metrics`` and the Perfetto counter track.
    """
    if "REPRO_CHAOS_PLAN" in os.environ:
        from ..chaos.hooks import apply_worker_faults
        apply_worker_faults(point)
    start = time.perf_counter()
    store = CheckpointStore(checkpoint_dir)
    hot = _hot_lru(hot_capacity)
    workload = _generate(point)
    family = family_key(point)
    snapshot = hot.best(family, workload)
    if snapshot is None:
        snapshot = store.best(family, workload)
        if snapshot is not None:
            hot.put(snapshot)
    outcome = fork_point(point, snapshot, workload=workload,
                         store=store, hot=hot)
    counters = {
        "serve.checkpoint_hits": 1 if outcome.forked else 0,
        "serve.checkpoint_misses": 0 if outcome.forked else 1,
        "serve.checkpoint_stores": 1 if outcome.emitted else 0,
    }
    return outcome.result, time.perf_counter() - start, counters
