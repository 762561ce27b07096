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
  invalidates exactly the affected entries.

Cache invalidation rules: bump :data:`ENGINE_VERSION` whenever a change
alters simulated *timing or statistics* (it is part of every key; stale
entries are simply never hit again). Entries are plain JSON files named
by their key and carry an embedded content checksum; an entry that
fails to read, parse, or checksum is *quarantined* — renamed to
``<key>.json.corrupt`` so it is inspectable but never re-read — and
treated as a miss. Deleting the cache directory is always safe.

The runner is crash-proof: a sweep point that raises (or, in parallel
mode, whose worker dies or exceeds ``timeout`` seconds) does not abort
the sweep. Failed points are retried with exponential backoff up to
``retries`` times; completed points are cached before any failure is
reported. ``on_error="raise"`` (the default) raises
:class:`~repro.errors.SweepError` carrying the per-point failures,
``on_error="none"`` returns ``None`` placeholders in their slots.

Environment knobs:

- ``REPRO_SWEEP_PARALLEL=0`` forces in-process serial execution;
- ``REPRO_SWEEP_WORKERS=N`` caps the worker-process count.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, \
    Union

from ..config import SystemConfig
from ..errors import ConfigError, SweepError
from ..smp.metrics import SimulationResult

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


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation in a sweep."""

    workload: str              # registry name (repro.workloads)
    config: SystemConfig
    scale: float = 1.0
    seed: int = 0


def build_system(config: SystemConfig):
    """Build the machine a config describes (secure iff any layer on)."""
    from ..core.senss import build_secure_system
    from ..smp.system import SmpSystem
    if (config.senss.enabled or config.memprotect.encryption_enabled
            or config.memprotect.integrity_enabled):
        return build_secure_system(config)
    return SmpSystem(config)


def run_point(point: SweepPoint) -> SimulationResult:
    """Generate the point's workload and simulate it to completion."""
    from ..workloads.registry import generate
    workload = generate(point.workload, point.config.num_processors,
                        scale=point.scale, seed=point.seed)
    return build_system(point.config).run(workload)


@dataclass
class SweepTimings:
    """Wall-clock and robustness accounting for :func:`run_sweep`.

    ``run_s`` sums per-point worker seconds (it exceeds ``wall_s``
    when points ran in parallel); ``cache_s`` is time spent probing
    and loading the result cache in the coordinating process.
    ``points_failed`` counts points with no result after all retries,
    ``points_retried`` counts points that needed more than one
    attempt, ``points_timed_out`` counts individual timeout events,
    and ``cache_quarantined`` counts corrupt cache entries renamed
    aside during this sweep.
    """

    wall_s: float = 0.0
    run_s: float = 0.0
    cache_s: float = 0.0
    slowest_point_s: float = 0.0
    points_run: int = 0
    points_cached: int = 0
    points_failed: int = 0
    points_retried: int = 0
    points_timed_out: int = 0
    cache_quarantined: int = 0
    workers: int = 0

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
            "sweep.points_timed_out": self.points_timed_out,
            "sweep.cache_quarantined": self.cache_quarantined,
            "sweep.workers": self.workers,
        }


@dataclass(frozen=True)
class SweepPointFailure:
    """Why one sweep point produced no result (see ``SweepError``)."""

    index: int          # first position of the point in the sweep
    workload: str
    error: str          # "ExcType: message" or a timeout description
    attempts: int = 1
    timed_out: bool = False


def _run_point_timed(point: SweepPoint
                     ) -> Tuple[SimulationResult, float]:
    """``run_point`` plus its worker-side wall-clock seconds.

    Looks ``run_point`` up as a module global (not a closed-over
    reference) so monkeypatched replacements are honored, and ships
    the measurement back with the result so the coordinator can
    aggregate per-point timings across process boundaries.
    """
    # Chaos-harness seam (repro.chaos): one env lookup when disabled,
    # so the production path stays at the noise floor.
    if "REPRO_CHAOS_PLAN" in os.environ:
        from ..chaos.hooks import apply_worker_faults
        apply_worker_faults(point)
    start = time.perf_counter()
    result = run_point(point)
    return result, time.perf_counter() - start


def _recorded_runner(record_dir: str, point: SweepPoint
                     ) -> Tuple[SimulationResult, float]:
    """``_run_point_timed`` that also persists a deterministic
    recording (docs/record_replay.md) of the run as a sweep artifact.

    Module-level (wrapped in ``functools.partial`` with a string
    directory) so it pickles into worker processes. The artifact is
    named by :func:`point_key`, matching the result cache's naming, so
    a recording pairs with its cache entry by filename. Attaching the
    recorder never changes simulated timing (DESIGN.md §6d), so the
    returned result is bit-identical to an unrecorded run and safe to
    cache as usual.
    """
    from ..obs.recording import record_run
    if "REPRO_CHAOS_PLAN" in os.environ:
        from ..chaos.hooks import apply_worker_faults
        apply_worker_faults(point)
    start = time.perf_counter()
    recording = record_run(point)
    recording.save(Path(record_dir) / f"{point_key(point)}.rec.json")
    return recording.to_result(), time.perf_counter() - start


def lru_gc(root: Path, max_bytes: int, pattern: str) -> int:
    """Evict oldest-``mtime`` files matching ``pattern`` under ``root``
    until their total size fits ``max_bytes``; returns eviction count.

    Shared by the :class:`ResultCache` and the
    :class:`~repro.sim.checkpoint.CheckpointStore` (loads touch mtime,
    so "oldest mtime" is least-recently-used). Tolerant of concurrent
    sweeps racing on the same directory: a file vanishing mid-scan or
    mid-unlink is someone else's eviction, not an error.
    """
    if not root.is_dir():
        return 0
    entries = []
    total = 0
    for path in root.glob(pattern):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    entries.sort()
    evicted = 0
    for _mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        evicted += 1
    return evicted


def point_key(point: SweepPoint) -> str:
    """Content hash identifying a point's complete simulation input."""
    payload = {
        "engine": ENGINE_VERSION,
        "workload": point.workload,
        "scale": point.scale,
        "seed": point.seed,
        "config": asdict(point.config),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed JSON store of completed simulation results.

    Every stored entry embeds a checksum over its own payload; a file
    that cannot be read, parsed, checksummed, or shaped into a
    :class:`SimulationResult` is renamed to ``<key>.json.corrupt``
    (counted in :attr:`quarantined`) so the damage is inspectable and
    the sweep re-simulates the point exactly once instead of
    re-tripping on the same bad file every run.

    The cache is safe for **concurrent writers and readers** — sweep
    worker processes, server threads and an asyncio loop may all share
    one directory. Writers stage into a uniquely-named temp file
    (pid + thread id + a process-local counter, so same-process
    threads never collide) and publish with atomic ``os.replace``;
    readers therefore only ever see absent or complete entries, never
    torn JSON. Two writers racing on the same key both publish a
    complete entry and the last rename wins — entries for a key are
    identical by construction (same simulation input), so either
    winner is correct. Counter updates are lock-protected so shared
    instances report exact quarantine/eviction counts.

    ``max_mb`` bounds the directory: every :meth:`store` runs an LRU
    sweep (loads touch mtime) evicting oldest entries until under
    budget; evictions are counted in :attr:`evicted`. Unbounded by
    default for compatibility — the CLI surfaces ``--cache-max-mb``.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 max_mb: Optional[float] = None):
        self.root = Path(root)
        self.max_mb = max_mb
        self.quarantined = 0
        self.evicted = 0
        self._lock = threading.Lock()
        self._scratch_serial = itertools.count()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @staticmethod
    def _checksum(payload: Dict[str, object]) -> str:
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _quarantine(self, path: Path) -> None:
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            return  # already moved or removed by a concurrent sweep
        with self._lock:
            self.quarantined += 1

    def load(self, point: SweepPoint) -> Optional[SimulationResult]:
        path = self._path(point_key(point))
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None  # a plain miss
        except (OSError, ValueError):
            self._quarantine(path)  # unreadable or torn entry
            return None
        checksum = None
        if isinstance(payload, dict):
            checksum = payload.pop("checksum", None)
        if checksum is not None and checksum != self._checksum(payload):
            self._quarantine(path)  # bit-rot or a tampered entry
            return None
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass
        try:
            return SimulationResult(
                workload=payload["workload"],
                num_cpus=payload["num_cpus"],
                cycles=payload["cycles"],
                per_cpu_cycles=list(payload["per_cpu_cycles"]),
                stats={name: value
                       for name, value in payload["stats"].items()})
        except (KeyError, TypeError):
            self._quarantine(path)  # parses but is not a result
            return None

    def store(self, point: SweepPoint, result: SimulationResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(point_key(point))
        payload = {
            "workload": result.workload,
            "num_cpus": result.num_cpus,
            "cycles": result.cycles,
            "per_cpu_cycles": list(result.per_cpu_cycles),
            "stats": dict(result.stats),
        }
        payload["checksum"] = self._checksum(payload)
        # Stage-then-rename so concurrent readers never observe torn
        # JSON. The scratch name is unique per (process, thread,
        # call): a bare pid suffix would collide across threads of
        # one server process, leaving interleaved bytes to publish.
        scratch = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}."
            f"{next(self._scratch_serial)}")
        try:
            scratch.write_text(json.dumps(payload, sort_keys=True))
            scratch.replace(path)
        finally:
            # A failed write (disk full, interrupt) must not leave
            # scratch litter that later globs could trip over.
            if scratch.exists():
                try:
                    scratch.unlink()
                except OSError:
                    pass
        self.gc()

    def gc(self) -> int:
        """Evict least-recently-used entries until under ``max_mb``."""
        if self.max_mb is None:
            return 0
        evicted = lru_gc(self.root, int(self.max_mb * 1024 * 1024),
                         "*.json")
        if evicted:
            with self._lock:
                self.evicted += evicted
        return evicted

    def clear(self) -> int:
        """Delete all cached entries; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue  # a concurrent clear got there first
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json")) \
            if self.root.is_dir() else 0


def _default_workers(num_points: int) -> int:
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(workers, num_points))


def _parallel_enabled() -> bool:
    return os.environ.get("REPRO_SWEEP_PARALLEL", "1") != "0"


class _Outcome(NamedTuple):
    """One attempt at one point: a result or a captured failure."""

    result: Optional[SimulationResult]
    seconds: float
    error: Optional[str]
    timed_out: bool


def _round_serial(points: Sequence[SweepPoint],
                  runner=_run_point_timed) -> List[_Outcome]:
    outcomes = []
    for point in points:
        try:
            result, seconds = runner(point)
        except Exception as exc:
            outcomes.append(_Outcome(
                None, 0.0, f"{type(exc).__name__}: {exc}", False))
        else:
            outcomes.append(_Outcome(result, seconds, None, False))
    return outcomes


def _await_with_deadlines(futures, budgets: Sequence[Optional[float]],
                          workers: int) -> Tuple[list, bool]:
    """Resolve every future against a per-future absolute deadline.

    Future ``i``'s clock starts at submission, not at its sequential
    collection turn: ``deadline_i = start + (sum of earlier budgets) /
    workers + budget_i``. The prefix-sum term is the worst-case list
    scheduling start bound (some worker frees once the earlier
    futures' budgets, spread across the pool, are spent), so a task
    that respects its own budget never falsely times out behind
    queue-mates — while a hung worker can no longer grant every later
    future unbounded wall-clock the way sequential
    ``result(timeout=...)`` collection did.

    Returns ``(slots, hung)`` where ``slots[i]`` is ``("ok", value)``,
    ``("error", message)`` or ``("timeout", None)`` in input order,
    and ``hung`` is True when a timed-out future could not be
    cancelled (its worker is still running and should be reaped).
    """
    start = time.monotonic()
    ahead = 0.0
    deadlines: List[Optional[float]] = []
    for budget in budgets:
        if budget is None:
            deadlines.append(None)
        else:
            deadlines.append(start + ahead / max(1, workers) + budget)
            ahead += budget
    slots: list = [None] * len(futures)
    pending = set(range(len(futures)))
    hung = False
    while pending:
        live = [deadlines[i] for i in pending
                if deadlines[i] is not None]
        wait_s = max(0.0, min(live) - time.monotonic()) if live \
            else None
        done, _ = _futures_wait({futures[i] for i in pending},
                                timeout=wait_s,
                                return_when=FIRST_COMPLETED)
        now = time.monotonic()
        for i in sorted(pending):
            future = futures[i]
            if future in done:
                try:
                    slots[i] = ("ok", future.result())
                except Exception as exc:
                    slots[i] = ("error",
                                f"{type(exc).__name__}: {exc}")
            elif deadlines[i] is not None and now >= deadlines[i]:
                if not future.cancel():
                    hung = True
                slots[i] = ("timeout", None)
            else:
                continue
            pending.discard(i)
    return slots, hung


def _reap(pool: ProcessPoolExecutor, hung: bool) -> None:
    """Shut the pool down; terminate workers left running by abandoned
    (timed-out, uncancellable) futures. Only called once every tracked
    future is resolved, so no live work can be lost — worker-side
    cache/checkpoint writes publish atomically, so a terminate mid-
    write leaves at most a stale temp file."""
    pool.shutdown(wait=False, cancel_futures=True)
    if hung:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except OSError:
                pass


def _round_parallel(points: Sequence[SweepPoint], workers: int,
                    timeout: Optional[float],
                    runner=_run_point_timed) -> List[_Outcome]:
    """One attempt per point on a fresh pool; captures every failure.

    A fresh pool per round means a worker crash (BrokenProcessPool
    poisons the whole executor) costs at most the current round: every
    in-flight future fails fast, is captured, and retries run on a
    clean pool. Per-point budgets are enforced as absolute deadlines
    from submission (:func:`_await_with_deadlines`); timed-out futures
    are cancelled if still queued, and a truly hung worker is
    terminated at round end (:func:`_reap`), not waited on.
    """
    count = min(workers, len(points))
    pool = ProcessPoolExecutor(max_workers=count)
    hung = False
    try:
        futures = [pool.submit(runner, point) for point in points]
        slots, hung = _await_with_deadlines(
            futures, [timeout] * len(points), count)
    finally:
        _reap(pool, hung)
    outcomes = []
    for status, value in slots:
        if status == "ok":
            result, seconds = value
            outcomes.append(_Outcome(result, seconds, None, False))
        elif status == "timeout":
            outcomes.append(_Outcome(
                None, 0.0, f"timed out after {timeout:g}s", True))
        else:
            outcomes.append(_Outcome(None, 0.0, value, False))
    return outcomes


def _family_units(points: Sequence[SweepPoint],
                  recorded: bool = False) -> List[List[SweepPoint]]:
    """Group points into prefix-sharing chains, smallest scale first.

    Units are keyed by :func:`~repro.sim.checkpoint.family_key`
    (everything but scale) in first-seen order; within a unit the
    scale ordering is what makes each point's first-exhaustion
    snapshot the next point's warm prefix. ``point_key`` breaks scale
    ties deterministically.
    """
    from .checkpoint import family_key
    units: Dict[str, List[SweepPoint]] = {}
    for point in points:
        units.setdefault(family_key(point, recorded=recorded),
                         []).append(point)
    return [sorted(unit, key=lambda p: (p.scale, point_key(p)))
            for unit in units.values()]


def _chain_runner(checkpoint_dir: str, cache_dir: Optional[str],
                  record_dir: Optional[str],
                  points: Sequence[SweepPoint]):
    """Worker-side entry for one family chain (partial-able, like
    ``_run_point_timed``). Builds fresh store/cache handles in the
    worker — only strings cross the process boundary."""
    from .checkpoint import CheckpointStore, run_chain
    store = CheckpointStore(checkpoint_dir)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return run_chain(points, store, cache=cache,
                     record_dir=record_dir)


def _units_serial(units: Sequence[Sequence[SweepPoint]],
                  runner) -> List[List[_Outcome]]:
    unit_outcomes = []
    for unit in units:
        try:
            rows = runner(unit)
        except Exception as exc:
            rows = [(None, 0.0, f"{type(exc).__name__}: {exc}")] \
                * len(unit)
        unit_outcomes.append([
            _Outcome(result, seconds, error, False)
            for result, seconds, error in rows])
    return unit_outcomes


def _units_parallel(units: Sequence[Sequence[SweepPoint]],
                    workers: int, timeout: Optional[float],
                    runner) -> List[List[_Outcome]]:
    """One chain per pool task; a unit's timeout budget scales with
    its length (``timeout`` stays per-point, as in ``_round_parallel``)
    and is enforced as an absolute deadline from submission
    (:func:`_await_with_deadlines`), so a slow or hung chain cannot
    grant later chains unbounded wall-clock. A failed or timed-out
    chain fails all its points — they retry on the next round,
    cheaply, because the chain's worker-side cache stores and
    checkpoints survive the crash (and its worker, if hung, is
    terminated by :func:`_reap`)."""
    count = min(workers, len(units))
    pool = ProcessPoolExecutor(max_workers=count)
    budgets = [timeout * len(unit) if timeout is not None else None
               for unit in units]
    hung = False
    try:
        futures = [pool.submit(runner, list(unit)) for unit in units]
        slots, hung = _await_with_deadlines(futures, budgets, count)
    finally:
        _reap(pool, hung)
    unit_outcomes = []
    for unit, budget, (status, value) in zip(units, budgets, slots):
        if status == "ok":
            unit_outcomes.append([
                _Outcome(result, seconds, error, False)
                for result, seconds, error in value])
        elif status == "timeout":
            unit_outcomes.append([_Outcome(
                None, 0.0, f"chain timed out after {budget:g}s",
                True)] * len(unit))
        else:
            unit_outcomes.append([_Outcome(None, 0.0, value, False)]
                                 * len(unit))
    return unit_outcomes


def run_sweep(points: Sequence[SweepPoint],
              cache: Optional[ResultCache] = None,
              parallel: Optional[bool] = None,
              max_workers: Optional[int] = None,
              timings: Optional[SweepTimings] = None,
              timeout: Optional[float] = None,
              retries: int = 1,
              backoff_s: float = 0.05,
              backoff_seed: Optional[int] = None,
              on_error: str = "raise",
              record_dir: Optional[Union[str, Path]] = None,
              checkpoint_dir: Optional[Union[str, Path]] = None
              ) -> List[Optional[SimulationResult]]:
    """Run every point, in parallel where possible; results in order.

    Duplicate points are simulated once. With a ``cache``, previously
    completed points are loaded instead of re-run and fresh results are
    stored for the next sweep. Pass a :class:`SweepTimings` to collect
    wall-clock phase accounting (per-worker simulation seconds are
    measured inside the workers and aggregated here).

    A point that raises — or, in parallel mode, whose worker process
    dies or takes longer than ``timeout`` seconds — never aborts the
    sweep: it is retried up to ``retries`` more times with exponential
    backoff (``backoff_s`` doubling per round, on a fresh worker pool
    so one crashed worker cannot poison the retry). The backoff jitter
    is **seeded** — from ``backoff_seed`` when given, else from the
    content hash of the pending points — so a crash-recovery run's
    retry schedule is deterministic and reproducible under ``repro
    record``, yet decorrelated across different sweeps. Results
    completed before a failure are cached regardless. If failures remain,
    ``on_error="raise"`` raises :class:`~repro.errors.SweepError`
    listing them; ``on_error="none"`` returns ``None`` in the failed
    points' slots. ``timeout`` needs worker processes and is ignored
    on the in-process serial path.

    With ``record_dir``, every point that actually *runs* (cache hits
    don't re-run, so they leave no recording) also writes a
    deterministic recording to ``<record_dir>/<point_key>.rec.json``
    — replayable and diffable via ``repro replay`` / ``repro diff``.

    With ``checkpoint_dir``, pending points are grouped into
    prefix-sharing *family chains* (same workload/seed/config,
    different scale) and executed smallest→largest through
    :func:`repro.sim.checkpoint.run_chain`: each point forks from the
    deepest stored snapshot that validates against its traces instead
    of re-simulating the shared warm-up, and results stay
    bit-identical to cold runs (docs/checkpointing.md). Parallelism is
    then across chains rather than points, and ``timeout`` budgets a
    whole chain at ``timeout × len(chain)``.
    """
    if on_error not in ("raise", "none"):
        raise ConfigError(
            f"on_error must be 'raise' or 'none', got {on_error!r}")
    sweep_start = time.perf_counter()
    points = list(points)
    results: dict = {}
    first_index: Dict[str, int] = {}
    pending: List[SweepPoint] = []
    pending_keys: set = set()
    quarantined_before = cache.quarantined if cache is not None else 0
    cache_start = time.perf_counter()
    for position, point in enumerate(points):
        key = point_key(point)
        first_index.setdefault(key, position)
        if key in results or key in pending_keys:
            continue
        cached = cache.load(point) if cache is not None else None
        if cached is not None:
            results[key] = cached
        else:
            pending.append(point)
            pending_keys.add(key)
    cache_seconds = time.perf_counter() - cache_start

    workers = 0
    point_seconds: List[float] = []
    failures: Dict[str, SweepPointFailure] = {}
    retried_keys: set = set()
    timeout_events = 0
    if pending:
        if parallel is None:
            parallel = _parallel_enabled()
        workers = _default_workers(len(pending)) if max_workers is None \
            else max(1, max_workers)
        use_pool = parallel and workers > 1 and len(pending) > 1
        if not use_pool:
            workers = 1
        runner = _run_point_timed
        if record_dir is not None:
            Path(record_dir).mkdir(parents=True, exist_ok=True)
            runner = functools.partial(_recorded_runner,
                                       str(record_dir))
        chain_runner = None
        if checkpoint_dir is not None:
            chain_runner = functools.partial(
                _chain_runner, str(checkpoint_dir),
                str(cache.root) if cache is not None else None,
                str(record_dir) if record_dir is not None else None)
        remaining = list(pending)
        attempts: Dict[str, int] = {}
        # Seeded jitter: a fixed seed (or, by default, the content
        # hash of what's pending) makes the retry schedule a pure
        # function of the sweep's input — identical on a recorded
        # re-run, different across unrelated sweeps so their retries
        # don't synchronize.
        if backoff_seed is None:
            digest = hashlib.sha256("\n".join(
                sorted(pending_keys)).encode()).hexdigest()
            backoff_rng = random.Random(int(digest[:16], 16))
        else:
            backoff_rng = random.Random(backoff_seed)
        for round_number in range(max(0, retries) + 1):
            if not remaining:
                break
            if round_number:
                retried_keys.update(point_key(p) for p in remaining)
                time.sleep(backoff_s * (2 ** (round_number - 1))
                           * (1.0 + backoff_rng.random()))
            if chain_runner is not None:
                units = _family_units(
                    remaining, recorded=record_dir is not None)
                unit_outcomes = (
                    _units_parallel(units, workers, timeout,
                                    chain_runner)
                    if use_pool
                    else _units_serial(units, chain_runner))
                round_points = [point for unit in units
                                for point in unit]
                outcomes = [outcome for unit in unit_outcomes
                            for outcome in unit]
            else:
                round_points = remaining
                outcomes = (
                    _round_parallel(remaining, workers, timeout,
                                    runner=runner)
                    if use_pool else _round_serial(remaining,
                                                   runner=runner))
            next_round: List[SweepPoint] = []
            for point, outcome in zip(round_points, outcomes):
                key = point_key(point)
                attempts[key] = attempts.get(key, 0) + 1
                if outcome.error is None:
                    point_seconds.append(outcome.seconds)
                    results[key] = outcome.result
                    failures.pop(key, None)
                    if cache is not None:
                        store_start = time.perf_counter()
                        cache.store(point, outcome.result)
                        cache_seconds += \
                            time.perf_counter() - store_start
                else:
                    if outcome.timed_out:
                        timeout_events += 1
                    failures[key] = SweepPointFailure(
                        index=first_index[key],
                        workload=point.workload,
                        error=outcome.error,
                        attempts=attempts[key],
                        timed_out=outcome.timed_out)
                    next_round.append(point)
            remaining = next_round

    ordered = [results.get(point_key(point)) for point in points]
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
        timings.points_timed_out += timeout_events
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


def run_cached(point: SweepPoint,
               cache: Optional[ResultCache] = None) -> SimulationResult:
    """Run (or load) a single point through the sweep machinery."""
    return run_sweep([point], cache=cache)[0]
