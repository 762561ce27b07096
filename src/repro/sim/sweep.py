"""Parallel sweep runner with a disk-backed result cache.

Every figure in the paper is a *sweep*: dozens of independent
(config, workload, seed) simulations whose results are reduced into a
table. This module runs such sweeps:

- :func:`run_sweep` fans independent points out over a
  ``ProcessPoolExecutor`` (each simulation is single-threaded pure
  Python, so process-level parallelism scales to the core count);
- completed :class:`~repro.smp.metrics.SimulationResult`s are stored in
  a content-addressed JSON cache (default ``.benchmarks/cache/``), so
  warm re-runs of a figure suite are near-instant;
- cache keys hash the *full* simulation input — workload name, scale,
  seed, every config field, and :data:`ENGINE_VERSION` — so any change
  to the machine configuration or the engine's timing semantics
  invalidates exactly the affected entries. A point computes its key
  once (:attr:`SweepPoint.key`) and carries it, into pool workers
  too, so a warm sweep costs one cache-file read per point.

Execution has one shape: a point runs through the one
:class:`PointRunner` (plain, recorded, forked from a checkpoint, with
a fault plan, with or without a cache), a *unit* is an ordered list of
points — a family chain with ``checkpoint_dir``, a single point
otherwise — and every unit runs in this process or, one unit per
task, on a fresh :class:`~repro.sim.pool.WorkerPool` per retry round
(the one worker pool, shared with the serve plane, whose workers run
the same :class:`PointRunner`). A fault campaign's cells are points of
one sweep.

Cache invalidation rules: bump :data:`ENGINE_VERSION` whenever a change
alters simulated *timing or statistics* (it is part of every key; stale
entries are simply never hit again). Entries are plain JSON files named
by their key and carry an embedded content checksum; an entry that
fails to read, parse, or checksum is *quarantined* — renamed to
``<key>.json.corrupt`` so it is inspectable but never re-read — and
treated as a miss. Deleting the cache directory is always safe.

The runner is crash-proof: a point that raises or whose worker dies
never aborts the sweep; it retries, then fails loudly
(:func:`run_sweep`).

Environment knobs:

- ``REPRO_SWEEP_PARALLEL=0`` forces in-process serial execution;
- ``REPRO_SWEEP_WORKERS=N`` caps the worker-process count.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, \
    Set, Tuple, Union

from ..config import SystemConfig, config_to_dict
from ..errors import ConfigError, SweepError
from ..smp.metrics import SimulationResult, result_from_dict, \
    result_to_dict
from .pool import WorkerPool
from .store import BlobStore, sha256

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan
    from .checkpoint import CheckpointStore

#: Bump when a change alters simulated timing or statistics; cached
#: results from other versions are never returned.
#: Version history: 1 = merged fast path; 2 = streamlined slow path +
#: deferred statistics (bit-identical results, conservatively bumped);
#: 3 = flattened hash tree, fused memprotect node path, fast digest
#: engines (bit-identical results, conservatively bumped);
#: 4 = vector backend + engine registry (bit-identical results,
#: conservatively bumped; the backend was later removed, DESIGN.md
#: §6f);
#: 5 = checkpoint/fork prefix-sharing executor — resumable engine
#: loop and snapshot-forked runs (bit-identical results,
#: conservatively bumped so result and checkpoint stores roll
#: together).
ENGINE_VERSION = 5

DEFAULT_CACHE_DIR = Path(".benchmarks") / "cache"


def content_key(payload: Dict[str, object]) -> str:
    """sha256 of ``payload`` as canonical JSON: the one hashing rule
    of point and family keys."""
    return sha256(json.dumps(payload, sort_keys=True,
                             default=str).encode())


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation in a sweep. An empty fault ``plan``
    is *armed* (an injector rides along, nothing fires), a non-empty
    one a fault cell recovering under ``policy``."""

    workload: str              # registry name (repro.workloads)
    config: SystemConfig
    scale: float = 1.0
    seed: int = 0
    plan: Optional[FaultPlan] = None
    policy: str = "halt"

    @cached_property
    def key(self) -> str:
        """Content hash of the point's complete simulation input,
        computed on first use and kept: a point is a frozen dataclass
        of frozen configs and atoms, so the hash cannot go stale.
        ``dataclasses.replace`` builds a new point with a new key,
        equality and hashing ignore the cached value, and a pickled
        point carries it (pool workers never recompute it). Plan and
        policy are part of it only when there is a plan, so a plain
        point keeps its key."""
        payload = {
            "engine": ENGINE_VERSION,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "config": config_to_dict(self.config),
        }
        if self.plan is not None:
            from ..obs.recording import _plan_to_dict
            payload["fault_plan"] = _plan_to_dict(self.plan, self.policy)
        return content_key(payload)


def build_system(config: SystemConfig):
    """Build the machine a config describes (secure iff any layer on)."""
    from ..core.senss import build_secure_system
    from ..smp.system import SmpSystem
    if (config.senss.enabled or config.memprotect.encryption_enabled
            or config.memprotect.integrity_enabled):
        return build_secure_system(config)
    return SmpSystem(config)


#: one point's outcome in a unit: (result | None, seconds, error | None,
#: counters), as :meth:`PointRunner.run_all` returns it
UnitRow = Tuple[Optional[SimulationResult], float, Optional[str],
                Dict[str, int]]


def run_point(point: SweepPoint) -> SimulationResult:
    """Generate the point's workload and simulate it to completion."""
    from ..workloads.registry import generate
    workload = generate(point.workload, point.config.num_processors,
                        scale=point.scale, seed=point.seed)
    return build_system(point.config).run(workload)


@dataclass
class SweepTimings:
    """Wall-clock and robustness accounting for :func:`run_sweep`.

    ``run_s`` sums per-point worker seconds, including the worker's
    result-cache store (it exceeds ``wall_s`` when points ran in
    parallel); ``cache_s`` is time spent probing and loading the
    result cache in the coordinating process.
    ``points_failed`` counts points with no result after all retries,
    ``points_retried`` counts points that needed more than one
    attempt, and ``cache_quarantined`` counts corrupt cache entries
    renamed aside during this sweep. ``forked`` holds the keys of the
    points that ran forked from a stored snapshot.
    """

    wall_s: float = 0.0
    run_s: float = 0.0
    cache_s: float = 0.0
    slowest_point_s: float = 0.0
    points_run: int = 0
    points_cached: int = 0
    points_failed: int = 0
    points_retried: int = 0
    cache_quarantined: int = 0
    workers: int = 0
    forked: Set[str] = field(default_factory=set)

    def as_dict(self) -> Dict[str, float]:
        return {
            "sweep.wall_s": round(self.wall_s, 6),
            "sweep.run_s": round(self.run_s, 6),
            "sweep.cache_s": round(self.cache_s, 6),
            "sweep.slowest_point_s": round(self.slowest_point_s, 6),
            "sweep.points_run": self.points_run,
            "sweep.points_cached": self.points_cached,
            "sweep.points_failed": self.points_failed,
            "sweep.points_retried": self.points_retried,
            "sweep.cache_quarantined": self.cache_quarantined,
            "sweep.workers": self.workers,
        }


@dataclass(frozen=True)
class SweepPointFailure:
    """Why one sweep point produced no result (see ``SweepError``)."""

    index: int          # first position of the point in the sweep
    workload: str
    error: str          # "ExcType: message"
    attempts: int = 1


def backoff_delay(base_s: float, attempt: int, key: str,
                  seed: int = 0) -> float:
    """Exponential backoff with seeded jitter, the one retry schedule
    of the sweep runner, the serve scheduler and the serve client:
    ``base_s · 2^(attempt−1) · (1 + r)`` with ``r`` the first draw of
    ``random.Random(f"{seed}:{key}:{attempt}")``. The schedule is a
    pure function of (seed, key, attempt): reproducible for one
    input, decorrelated across keys so mass failures don't retry as
    one herd."""
    jitter = random.Random(f"{seed}:{key}:{attempt}").random()
    return base_s * (2 ** (attempt - 1)) * (1.0 + jitter)


@dataclass(frozen=True)
class PointRunner:
    """The one way a point executes, composed from the sweep options.

    - no options and no fault plan: ``run_point`` (looked up as a
      module global, so monkeypatched replacements are honored);
    - a fault ``plan``: armed under ``policy``, the result carrying a
      ``faults`` section; it forks but never emits a snapshot;
    - ``checkpoints`` (a :class:`~repro.sim.checkpoint.CheckpointStore`):
      fork from the deepest stored snapshot that validates against the
      point's traces and emit this point's seam snapshot for larger
      scales (docs/checkpointing.md) — in sweeps, chains and serve
      workers alike;
    - ``record_dir``: also write a deterministic recording to
      ``<record_dir>/<point_key>.rec.json`` (docs/record_replay.md),
      named like the cache entry so the two pair by filename;
    - ``cache``: store the result once it exists. The cache is
      written here, where the point ran, so a unit that dies halfway
      keeps its finished points (``run_sweep`` reloads them before a
      retry).

    Calling it returns ``(result, seconds, counters)``; ``counters``
    holds ``serve.checkpoint_*`` deltas when forking (the scheduler
    folds them into ``/v1/metrics``) and is empty otherwise. Forked
    and recorded results are bit-identical to ``run_point``.

    Instances pickle (stores pickle as their directory and budget), so
    the same runner crosses into pool workers. The chaos-harness seam
    (:mod:`repro.chaos`) sits at the top of every call: one
    environment lookup when no plan is set.
    """

    cache: Optional[ResultCache] = None
    record_dir: Optional[str] = None
    checkpoints: Optional[CheckpointStore] = None

    def __call__(self, point: SweepPoint
                 ) -> Tuple[SimulationResult, float, Dict[str, int]]:
        if "REPRO_CHAOS_PLAN" in os.environ:
            from ..chaos.hooks import apply_worker_faults
            apply_worker_faults(point)
        start = time.perf_counter()
        counters: Dict[str, int] = {}
        if self.checkpoints is None and self.record_dir is None \
                and point.plan is None:
            result = run_point(point)
        else:
            from .checkpoint import run_forked
            result, counters = run_forked(
                point, self.checkpoints, self.record_dir)
        if self.cache is not None:
            self.cache.store(point, result)
        return result, time.perf_counter() - start, counters

    def run_all(self, points: Sequence[SweepPoint]) -> List[UnitRow]:
        """Run ``points`` in order, capturing each failure so one
        point never aborts the rest; one :data:`UnitRow` per point,
        in input order."""
        rows: List[UnitRow] = []
        for point in points:
            try:
                result, seconds, counters = self(point)
            except Exception as exc:
                rows.append((None, 0.0, f"{type(exc).__name__}: {exc}",
                             {}))
            else:
                rows.append((result, seconds, None, counters))
        return rows


def _run_point_timed(point: SweepPoint
                     ) -> Tuple[SimulationResult, float]:
    """``run_point`` plus its worker-side wall-clock seconds: the
    option-free :class:`PointRunner` call."""
    result, seconds, _counters = PointRunner()(point)
    return result, seconds


def point_key(point: SweepPoint) -> str:
    """Content hash identifying a point's complete simulation input.

    The point computes it once (:attr:`SweepPoint.key`); every later
    call — the sweep's key list, each cache load and store, the
    scheduler's queue — reads the cached value.
    """
    return point.key


class ResultCache(BlobStore):
    """Content-addressed JSON store of completed simulation results.

    Entries are ``<point_key>.json`` files embedding a sha256 checksum
    over their own payload. Every load verifies it: an entry that
    cannot be read, parsed, verified — including one that carries no
    checksum — or shaped into a :class:`SimulationResult` is
    quarantined (counted in :attr:`quarantined`) and the sweep
    re-simulates the point exactly once instead of re-tripping on the
    same bad file every run.

    Safe for concurrent writers and readers — sweep worker processes,
    server threads and an asyncio loop may all share one directory
    (atomic publish; :mod:`repro.sim.store`). ``max_mb`` bounds the
    directory with an LRU sweep after every :meth:`store` (loads
    touch mtime); evictions are counted in :attr:`evicted`. Unbounded
    by default — the CLI surfaces ``--cache-max-mb``.
    """

    SUFFIX = ".json"

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 max_mb: Optional[float] = None):
        super().__init__(root, max_mb)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.SUFFIX}"

    @staticmethod
    def _checksum(payload: Dict[str, object]) -> str:
        return sha256(json.dumps(payload, sort_keys=True).encode())

    @classmethod
    def _decode(cls, handle) -> SimulationResult:
        payload = json.load(handle)
        if payload.pop("checksum", None) != cls._checksum(payload):
            raise ValueError("missing or mismatched checksum")
        return result_from_dict(payload)

    def load(self, point: SweepPoint) -> Optional[SimulationResult]:
        return self._read(self._path(point_key(point)), self._decode)

    def store(self, point: SweepPoint, result: SimulationResult) -> None:
        payload = result_to_dict(result)
        payload["checksum"] = self._checksum(payload)
        self._publish(self._path(point_key(point)),
                      json.dumps(payload, sort_keys=True).encode())
        self.gc()


class RecordingStore(BlobStore):
    """Content-addressed run recordings (docs/record_replay.md).

    Entries are ``<point_key>.rec.json`` files holding a
    :class:`~repro.obs.recording.Recording`'s canonical bytes, named
    like the result cache entry of the same point so the two pair by
    filename. Writes are the BlobStore's atomic publish, so a reader
    never sees a torn file; :meth:`load_bytes` verifies the
    recording's schema and checksum before returning its bytes
    unchanged, and quarantines a file that fails (``.corrupt``), so
    the point is recorded afresh instead of served broken forever.
    """

    SUFFIX = ".rec.json"

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.SUFFIX}"

    @staticmethod
    def _decode(handle) -> bytes:
        from ..obs.recording import Recording
        data = handle.read()
        Recording.loads(data)
        return data

    def store(self, key: str, recording) -> None:
        self._publish(self._path(key), recording.to_bytes())

    def load_bytes(self, key: str) -> Optional[bytes]:
        """The verified bytes of ``key``'s recording, or None when it
        is absent or failed verification (and was quarantined)."""
        return self._read(self._path(key), self._decode)

    def load(self, key: str):
        """``key``'s verified :class:`~repro.obs.recording.Recording`,
        or None, as :meth:`load_bytes`."""
        from ..obs.recording import Recording
        return self._read(self._path(key),
                          lambda handle: Recording.loads(handle.read()))


def _default_workers(num_points: int) -> int:
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(workers, num_points))


def _parallel_enabled() -> bool:
    return os.environ.get("REPRO_SWEEP_PARALLEL", "1") != "0"


def _family_units(points: Sequence[SweepPoint],
                  recorded: bool = False) -> List[List[SweepPoint]]:
    """Group points into prefix-sharing chains, smallest scale first.

    Units are keyed by :func:`~repro.sim.checkpoint.family_key`
    (everything but scale) in first-seen order; within a unit the
    scale ordering is what makes each point's first-exhaustion
    snapshot the next point's warm prefix. ``point_key`` breaks scale
    ties deterministically. A point with a fault plan emits no
    snapshot, so nothing follows it: it is a unit of its own.
    """
    from .checkpoint import family_key
    units: Dict[str, List[SweepPoint]] = {}
    for point in points:
        unit = point.key if point.plan is not None \
            else family_key(point, recorded=recorded)
        units.setdefault(unit, []).append(point)
    return [sorted(unit, key=lambda p: (p.scale, point_key(p)))
            for unit in units.values()]


def run_sweep(points: Sequence[SweepPoint],
              cache: Optional[ResultCache] = None,
              parallel: Optional[bool] = None,
              max_workers: Optional[int] = None,
              timings: Optional[SweepTimings] = None,
              retries: int = 1,
              backoff_s: float = 0.05,
              backoff_seed: Optional[int] = None,
              on_error: str = "raise",
              record_dir: Optional[Union[str, Path]] = None,
              checkpoint_dir: Optional[Union[str, Path]] = None
              ) -> List[Optional[SimulationResult]]:
    """Run every point, in parallel where possible; results in order.

    Duplicate points are simulated once. With a ``cache``, previously
    completed points are loaded instead of re-run and each executed
    point is stored exactly once, by the worker that ran it (within
    the cache's ``max_mb`` budget). Pass a :class:`SweepTimings` to
    collect wall-clock phase accounting (per-worker simulation seconds
    are measured inside the workers and aggregated here).

    A point that raises — or, in parallel mode, whose worker process
    dies — never aborts the sweep: it is retried up to ``retries``
    more times with exponential backoff (:func:`backoff_delay` from
    ``backoff_s``, on a fresh worker pool so one crashed worker cannot
    poison the retry). The backoff jitter is **seeded** — keyed by the
    content hash of the initially pending points, seeded by
    ``backoff_seed`` (default 0) — so a crash-recovery run's retry
    schedule is deterministic and reproducible under ``repro
    record``, yet decorrelated across different sweeps. Results
    completed before a failure are cached regardless, and reloaded
    before a retry. If failures remain, ``on_error="raise"`` raises
    :class:`~repro.errors.SweepError` listing them;
    ``on_error="none"`` returns ``None`` in the failed points' slots.

    With ``record_dir``, every point that actually *runs* (cache hits
    don't re-run, so they leave no recording) also writes a
    deterministic recording to ``<record_dir>/<point_key>.rec.json``
    — replayable and diffable via ``repro replay`` / ``repro diff``.

    Each pending point is a unit of its own, so parallelism is across
    points. With ``checkpoint_dir``, pending points instead group
    into prefix-sharing *family chains* (same workload/seed/config,
    different scale) executed smallest→largest: each point forks from
    the deepest stored snapshot that validates against its traces
    instead of re-simulating the shared warm-up, and results stay
    bit-identical to cold runs (docs/checkpointing.md). Parallelism is
    then across chains; ``timings.forked`` gets the forked points' keys.
    """
    if on_error not in ("raise", "none"):
        raise ConfigError(
            f"on_error must be 'raise' or 'none', got {on_error!r}")
    sweep_start = time.perf_counter()
    points = list(points)
    keys = [point_key(point) for point in points]
    unique: Dict[str, SweepPoint] = {}
    first_index: Dict[str, int] = {}
    for index, (key, point) in enumerate(zip(keys, points)):
        unique.setdefault(key, point)
        first_index.setdefault(key, index)
    results: Dict[str, SimulationResult] = {}
    failures: Dict[str, SweepPointFailure] = {}
    quarantined_before = cache.quarantined if cache is not None else 0
    cache_seconds = 0.0

    def probe(candidates: Dict[str, SweepPoint]
              ) -> Dict[str, SweepPoint]:
        """Move cached points into ``results``; return the misses."""
        nonlocal cache_seconds
        if cache is None:
            return candidates
        start = time.perf_counter()
        misses = {}
        for key, point in candidates.items():
            cached = cache.load(point)
            if cached is None:
                misses[key] = point
            else:
                results[key] = cached
                failures.pop(key, None)
        cache_seconds += time.perf_counter() - start
        return misses

    pending = probe(unique)
    workers = 0
    point_seconds: List[float] = []
    retried_keys: set = set()
    if pending:
        if parallel is None:
            parallel = _parallel_enabled()
        workers = _default_workers(len(pending)) if max_workers is None \
            else max(1, max_workers)
        use_pool = parallel and workers > 1 and len(pending) > 1
        if not use_pool:
            workers = 1
        if record_dir is not None:
            Path(record_dir).mkdir(parents=True, exist_ok=True)
        checkpoints = None
        if checkpoint_dir is not None:
            from .checkpoint import CheckpointStore
            checkpoints = CheckpointStore(checkpoint_dir)
        runner = PointRunner(
            cache=cache, checkpoints=checkpoints,
            record_dir=None if record_dir is None else str(record_dir))
        remaining = pending
        attempts: Dict[str, int] = {}
        # Keyed by the content hash of what's pending, the retry
        # schedule is a pure function of the sweep's input: identical
        # on a recorded re-run, different across unrelated sweeps so
        # their retries don't synchronize.
        backoff_key = sha256("\n".join(sorted(pending)).encode())
        for round_number in range(max(0, retries) + 1):
            if round_number:
                # What a failed unit finished is already cached.
                remaining = probe(remaining)
                if remaining:
                    retried_keys.update(remaining)
                    time.sleep(backoff_delay(backoff_s, round_number,
                                             backoff_key,
                                             backoff_seed or 0))
            if not remaining:
                break
            if checkpoints is not None:
                units = _family_units(list(remaining.values()),
                                      recorded=record_dir is not None)
            else:
                units = [[point] for point in remaining.values()]
            if use_pool:
                # A failed unit fails all its points: they retry next
                # round, cheaply, because what the unit finished was
                # cached and checkpointed worker-side.
                with WorkerPool(min(workers, len(units))) as pool:
                    outcomes = pool.map(runner.run_all, units)
                unit_rows = [
                    rows if exc is None else
                    [(None, 0.0, f"{type(exc).__name__}: {exc}", {})]
                    * len(unit)
                    for unit, (rows, exc) in zip(units, outcomes)]
            else:
                unit_rows = [runner.run_all(unit) for unit in units]
            remaining = {}
            for unit, rows in zip(units, unit_rows):
                for point, (result, seconds, error, counters) in zip(
                        unit, rows):
                    key = point_key(point)
                    attempts[key] = attempts.get(key, 0) + 1
                    if error is None:
                        point_seconds.append(seconds)
                        results[key] = result
                        failures.pop(key, None)
                        if timings is not None and \
                                counters.get("serve.checkpoint_hits"):
                            timings.forked.add(key)
                        continue
                    failures[key] = SweepPointFailure(
                        index=first_index[key],
                        workload=point.workload,
                        error=error, attempts=attempts[key])
                    remaining[key] = point

    ordered = [results.get(key) for key in keys]
    if timings is not None:
        timings.wall_s += time.perf_counter() - sweep_start
        timings.run_s += sum(point_seconds)
        timings.cache_s += cache_seconds
        timings.slowest_point_s = max(
            [timings.slowest_point_s] + point_seconds)
        timings.points_run += len(pending) - len(failures)
        timings.points_cached += len(points) - len(pending)
        timings.points_failed += len(failures)
        timings.points_retried += len(retried_keys)
        if cache is not None:
            timings.cache_quarantined += \
                cache.quarantined - quarantined_before
        timings.workers = max(timings.workers, workers)
    if failures and on_error == "raise":
        ordered_failures = sorted(failures.values(),
                                  key=lambda failure: failure.index)
        raise SweepError(
            f"{len(ordered_failures)} of {len(points)} sweep points "
            "failed: " + "; ".join(
                f"[{f.index}] {f.workload}: {f.error}"
                for f in ordered_failures[:4]),
            failures=ordered_failures)
    return ordered
