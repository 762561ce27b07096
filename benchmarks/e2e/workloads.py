"""The four workloads of the end-to-end benchmark.

Run one workload in this (fresh) interpreter::

    PYTHONPATH=src python benchmarks/e2e/workloads.py \\
        --workload figures --seed 0 --seconds 20 --trace 0 --out w.json

``run.py`` is the user-facing entry point; it starts this script once
per workload in its own process group and collects the JSON it writes.

Every workload builds its inputs from ``--seed`` alone (the point
grids below are this benchmark's own frozen copies), starts every
modelled cache empty on every point, times its work for about
``--seconds`` seconds, and checks its outputs: results must repeat
across rounds and paths (cold vs cached vs forked vs served), a
seeded sample is recomputed in-process, and for seeds 0 and 1 a sha256
digest of the results must equal the one in ``golden.json`` (computed
by ``golden.py`` from cold serial ``run_point`` calls).

With ``--trace 1`` the same work runs under :mod:`spans` wrappers and
the per-layer metrics are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
import spans
from common import metric

#: how many times a workload's set-up is repeated (median reported)
SETUP_REPEATS = 3

FIGURES_SCALE = 0.5
FIGURES_WARM_PASSES = 50
#: untimed warm passes first: the page cache and allocator settle
FIGURES_WARMUP_PASSES = 2
FIGURES_SPOT_CHECKS = 2

MISSHEAVY_SCALE = 0.5
MISSHEAVY_L2_KB = 64
MISSHEAVY_WARMUP_SCALE = 0.02

FORK_SCALES = tuple(round(0.1 * step, 1) for step in range(1, 11))
FORK_L1_KB = 8
FORK_L2_KB = 32
CAMPAIGN = dict(workload="radix", cpus=2, scale=1.0, trigger=300)
FORK_SPOT_CHECKS = 2

SERVE_RATE = 30.0              # jobs/s, Poisson
SERVE_OPEN_SHARE = 0.6         # of --seconds spent in the open loop
SERVE_BURSTS = 4
SERVE_BURST_JOBS = 120
SERVE_SCALE = 0.1
SERVE_CPUS = 2
SERVE_TENANTS = ("alice", "bob")
#: serve's simulated traces are fixed; its seed varies the traffic:
#: arrival times, tenants, hot picks, auth intervals
SERVE_TRACE_SEED = 0
SERVE_NOVEL_PROGRAM = "barnes"
SERVE_SEED_STRIDE = 10_000_000
SERVE_SPOT_CHECKS = 16
#: a run whose generator ran later than this (p95) is marked invalid
SERVE_MAX_LATENESS_MS = 10.0
#: layers the serving process itself traces; per-point layers are
#: traced inside the workers (spans.traced_point_runner)
SERVE_MAIN_LAYERS = ("serve.submit", "serve.queue", "sweep.cache.load",
                     "sweep.cache.store")

KB = 1024
#: worker processes of pooled sweeps and of the serve plane, whatever
#: nproc reports
WORKERS = 2


# -- point grids (frozen copies; the program only sees these points) -------
# Simulator imports are local throughout: main() times them as set-up.


def figures_points(seed: int):
    """The paper's Figs 6-10 grid: 75 points at scale 0.5."""
    from repro.config import e6000_config as e6000
    from repro.sim.sweep import SweepPoint
    from repro.workloads.registry import SPLASH2_NAMES
    points = []

    def add(name, config):
        points.append(SweepPoint(name, config, scale=FIGURES_SCALE,
                                 seed=seed))

    for l2_mb in (1, 4):
        for cpus in (2, 4):
            for name in SPLASH2_NAMES:
                add(name, e6000(num_processors=cpus, l2_mb=l2_mb,
                                senss_enabled=False))
                add(name, e6000(num_processors=cpus, l2_mb=l2_mb))
    for name in SPLASH2_NAMES:
        for masks in (4, 2, 1):                          # Fig 7
            add(name, e6000(4, 4).with_masks(masks))
        for interval in (32, 10, 1):                     # Fig 9
            add(name, e6000(4, 4, auth_interval=interval))
        add(name, e6000(4, 1).with_memprotect(          # Fig 10
            encryption_enabled=True, integrity_enabled=True))
    return points


def missheavy_points(seed: int, scale: float = MISSHEAVY_SCALE):
    """4P, 64 KB L2: 26-41% L2 misses, so the slow path dominates."""
    from repro.config import e6000_config as e6000
    from repro.sim.sweep import SweepPoint
    l2 = MISSHEAVY_L2_KB * KB
    senss = e6000(4, 1).with_l2_size(l2)
    return [
        SweepPoint("ocean", e6000(4, 1, senss_enabled=False)
                   .with_l2_size(l2), scale, seed),
        SweepPoint("ocean", senss, scale, seed),
        SweepPoint("ocean", senss.with_memprotect(
            encryption_enabled=True, integrity_enabled=True), scale, seed),
        # a MAC broadcast on every transfer, one mask
        SweepPoint("lu", e6000(4, 1, auth_interval=1).with_l2_size(l2)
                   .with_masks(1), scale, seed),
    ]


def fork_families(seed: int, scales: Sequence[float] = FORK_SCALES):
    """Three scale-axis families on a small-cache SENSS machine."""
    from repro.config import e6000_config as e6000
    from repro.sim.sweep import SweepPoint
    families = []
    for name, cpus in (("radix", 2), ("barnes", 2), ("lu", 4)):
        config = e6000(cpus, 1).with_l2_size(FORK_L2_KB * KB)
        config = replace(config, l1=replace(config.l1,
                                            size_bytes=FORK_L1_KB * KB))
        families.append((name, [SweepPoint(name, config, scale, seed)
                                for scale in scales]))
    return families


def campaign_kwargs(seed: int) -> dict:
    from repro.faults.plan import FaultKind
    from repro.faults.recovery import POLICIES
    return dict(CAMPAIGN, kinds=FaultKind.BUS, policies=POLICIES,
                seed=seed)


def _serve_config(interval: Optional[int], senss: bool = True):
    from repro.config import e6000_config as e6000
    if not senss:
        return e6000(SERVE_CPUS, 1, senss_enabled=False)
    return e6000(SERVE_CPUS, 1, auth_interval=interval or 100)


def serve_hot_set():
    """Ten points every job draws its second point from: each program
    at 2P, baseline and SENSS."""
    from repro.sim.sweep import SweepPoint
    from repro.workloads.registry import SPLASH2_NAMES
    return [SweepPoint(name, _serve_config(None, senss), SERVE_SCALE,
                       SERVE_TRACE_SEED)
            for name in SPLASH2_NAMES for senss in (False, True)]


def _balanced(rng: random.Random, items: Sequence, count: int) -> list:
    """``count`` picks that use every item equally often (in shuffled
    rounds), so the mix does not vary from seed to seed."""
    picks: list = []
    while len(picks) < count:
        block = list(items)
        rng.shuffle(block)
        picks.extend(block)
    return picks[:count]


def serve_jobs(seed: int, stream: str, count: int, first_interval: int):
    """``count`` jobs of (tenant, [novel point, hot point]). The novel
    point is SERVE_NOVEL_PROGRAM with an auth interval unique to the
    job, so it always executes, on a trace every worker memoizes; one
    program keeps job latency unimodal, so its median is steady.
    Tenants and hot points are drawn in balanced rounds."""
    from repro.sim.sweep import SweepPoint
    rng = random.Random(f"{seed}:{stream}")
    tenants = _balanced(rng, SERVE_TENANTS, count)
    hot = _balanced(rng, serve_hot_set(), count)
    # The seed shifts every stream's intervals alike, so each seed
    # serves its own points and streams never collide.
    first_interval += SERVE_SEED_STRIDE * seed
    return [(tenants[index],
             [SweepPoint(SERVE_NOVEL_PROGRAM,
                         _serve_config(first_interval + index),
                         SERVE_SCALE, SERVE_TRACE_SEED), hot[index]])
            for index in range(count)]


def open_loop_schedule(seed: int, duration_s: float,
                       rate: float = SERVE_RATE) -> List[float]:
    """Poisson due times (seconds from the loop's start) in
    ``[0, duration_s)``; the same seed gives the same schedule."""
    rng = random.Random(f"{seed}:arrivals")
    due, times = 0.0, []
    while True:
        due += rng.expovariate(rate)
        if due >= duration_s:
            return times
        times.append(due)


#: first auth interval of each serve job stream (novel points are
#: numbered on from it, so no two jobs of a run share a point)
OPEN_INTERVAL_BASE = 1_000
PRIMING_INTERVAL_BASE = 1_000_000


def burst_interval_base(burst: int) -> int:
    return 2_000_000 + burst * 10_000


# -- run context -----------------------------------------------------------


class Run:
    """State shared by one workload execution: inputs, the scratch
    directory, sample lists and the correctness ledger."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, import_s: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.import_s = import_s
        self.work = common.WORK_DIR / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._dirs = 0
        self.setup_s: List[float] = []
        self.batch_s: List[float] = []
        self.job_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest_parts: Dict[str, str] = {}
        self.detail: Dict[str, object] = {}
        self.layer: Dict[str, dict] = {}
        #: taken when the timed work ends, before output checks
        self.peak_rss_mb: Optional[float] = None

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def attempt(self, fn: Callable, *args, **kwargs):
        """One counted operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.fail(f"{type(exc).__name__}: {exc}")
            return None

    def time_setup(self, prepare: Callable[[], object],
                   discard: Optional[Callable[[object], None]] = None
                   ) -> object:
        """Run ``prepare`` SETUP_REPEATS times, timing each; returns
        the last repetition's value. ``discard`` disposes of the
        earlier values, untimed."""
        value = None
        for repetition in range(SETUP_REPEATS):
            if repetition and discard is not None:
                discard(value)
            gc.collect()
            start = time.perf_counter()
            value = prepare()
            self.setup_s.append(time.perf_counter() - start)
        return value

    def rounds(self):
        """Closed-loop round planner: yields round numbers, at least
        one, while the previous round would still fit in the budget."""
        deadline = time.perf_counter() + self.seconds
        last = 0.0
        number = 0
        while number == 0 or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            yield number
            last = time.perf_counter() - start
            number += 1

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _settle() -> None:
    """Join exited pool workers (for up to 5 s) and collect garbage,
    so the next timed operation does not share the CPUs with a pool
    shutting down."""
    import multiprocessing
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    gc.collect()


def _timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _keyed(points, results):
    from repro.sim.sweep import point_key
    return [(point_key(point), result)
            for point, result in zip(points, results)]


def _accesses(results) -> int:
    total = 0
    for result in results:
        for name, value in result.stats.items():
            if name.endswith((".l1_hit", ".l2_hit", ".l2_miss",
                              ".upgrade_needed")):
                total += value
    return total


def _spot_check(run: Run, points, results, count: int,
                stream: str) -> None:
    """Recompute ``count`` seeded-random points cold, in this process,
    and require equality with what the workload returned."""
    from repro.sim.sweep import run_point
    from repro.workloads.registry import clear_memo
    rng = random.Random(f"{run.seed}:{stream}")
    for index in rng.sample(range(len(points)), min(count, len(points))):
        clear_memo()
        expected = run.attempt(run_point, points[index])
        run.check(expected is not None and expected == results[index],
                  f"{stream}: point {index} differs from a cold "
                  "in-process run_point")


def _simulated_ratios(results) -> Dict[str, float]:
    """Per-layer hit ratios of the simulated machines (they must not
    move for a host-only change)."""
    sums: Dict[str, int] = {}
    for result in results:
        for name in ("memprotect.pad_cache_hits",
                     "memprotect.pad_cache_misses",
                     "memprotect.node_cache_hits",
                     "memprotect.hash_fetches"):
            sums[name] = sums.get(name, 0) + result.stats.get(name, 0)

    def ratio(hits: str, misses: str) -> float:
        total = sums[hits] + sums[misses]
        return sums[hits] / total if total else 0.0

    return {
        "memprotect.pad_hit_ratio": ratio("memprotect.pad_cache_hits",
                                          "memprotect.pad_cache_misses"),
        "memprotect.hash_hit_ratio": ratio("memprotect.node_cache_hits",
                                           "memprotect.hash_fetches"),
    }


def _overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced / untraced - 1.0)


def _finish_trace(run: Run, tracer: spans.Tracer, extra: Dict[str, float],
                  worker: Optional[Tuple[dict, dict]] = None) -> None:
    """Fold the tracer (plus serve-worker aggregates) into the run's
    per-layer metrics and write the Chrome trace."""
    totals, counts = tracer.totals()
    if worker is not None:
        worker_totals, worker_counts = worker
        for layer, row in worker_totals.items():
            slot = totals.setdefault(layer, [0, 0, 0])
            slot[0] += row[0]
            slot[2] += row[2]
        for name, value in worker_counts.items():
            counts[name] = counts.get(name, 0) + value
    layer_self, unattributed, root = tracer.root_identity()
    extra = dict(extra)
    extra["trace.root_s"] = spans.seconds(root)
    extra["unattributed_s"] = spans.seconds(unattributed)
    run.layer = spans.layer_metrics(totals, counts, extra)
    run.detail["trace_identity_ns"] = {
        "layer_self": layer_self, "unattributed": unattributed,
        "root": root, "exact": layer_self + unattributed == root}
    path = common.WORK_DIR / f"trace-{run.workload}-seed{run.seed}.json"
    tracer.write_chrome_trace(path, {"workload": run.workload,
                                     "seed": run.seed})
    run.detail["chrome_trace"] = str(path.relative_to(common.ROOT))


def _check_golden(run: Run) -> None:
    """Every digest part the run produced must equal golden.json's
    (seeds other than GOLDEN_SEEDS only report theirs)."""
    run.detail["digest"] = common.combine_digests(run.digest_parts)
    if run.seed not in common.GOLDEN_SEEDS:
        run.detail["golden"] = "none"
        return
    golden = common.load_golden().get(run.workload, {}).get(str(run.seed))
    if golden is None:
        run.detail["golden"] = "missing"
        run.fail(f"golden.json has no digests for seed {run.seed}")
        return
    mismatched = [part for part, digest in run.digest_parts.items()
                  if golden.get(part) != digest]
    run.detail["golden"] = "mismatch" if mismatched else "match"
    run.check(not mismatched and bool(run.digest_parts),
              f"digests differ from golden.json: {mismatched}")


# -- figures ---------------------------------------------------------------


def _figures_setup(run: Run):
    from repro.sim.sweep import run_sweep
    points = figures_points(run.seed)
    tiny = [replace(point, scale=0.01) for point in points[:2]]
    run_sweep(tiny, max_workers=WORKERS)
    return points


def run_figures(run: Run) -> None:
    """Closed loop, one caller: each round runs the Fig 6-10 grid cold
    through ``run_sweep(max_workers=2)`` into an empty ResultCache
    (batch), then re-reads it with FIGURES_WARM_PASSES warm passes
    (jobs)."""
    from repro.sim.sweep import ResultCache, SweepTimings, run_sweep
    from repro.workloads.registry import clear_memo
    points = run.time_setup(lambda: _figures_setup(run))
    timings = SweepTimings()
    expected = None
    if run.trace:
        return _figures_traced(run, points)
    for _ in run.rounds():
        cache = ResultCache(run.fresh_dir("cache"))
        clear_memo()
        gc.collect()
        results, elapsed = _timed(run.attempt, run_sweep, points,
                                  cache=cache, max_workers=WORKERS,
                                  timings=timings)
        if results is None:
            continue
        run.batch_s.append(elapsed)
        if expected is None:
            expected = results
        run.check(results == expected, "cold sweep results changed "
                  "between rounds")
        _settle()
        for index in range(FIGURES_WARMUP_PASSES + FIGURES_WARM_PASSES):
            warm, elapsed = _timed(run.attempt, run_sweep, points,
                                   cache=cache)
            if index >= FIGURES_WARMUP_PASSES:
                run.job_ms.append(1000.0 * elapsed)
            run.check(warm == expected, "warm pass differs from the "
                      "cold sweep")
        shutil.rmtree(cache.root, ignore_errors=True)
    _settle()
    run.peak_rss_mb = common.peak_rss_mb()
    if expected is None:
        return
    run.digest_parts["results"] = common.result_digest(
        _keyed(points, expected))
    run.detail["accesses_per_s"] = _accesses(expected) / \
        common.percentile(run.batch_s, 0.5)
    run.detail["sweep"] = timings.as_dict()
    _spot_check(run, points, expected, FIGURES_SPOT_CHECKS, "figures")


def _figures_traced(run: Run, points) -> None:
    """Pool accounting from one untraced parallel sweep; then the same
    grid serially, untraced and traced, for the overhead ratio."""
    from repro.sim.sweep import ResultCache, SweepTimings, run_sweep
    from repro.workloads.registry import clear_memo
    pooled = SweepTimings()
    clear_memo()
    expected = run.attempt(run_sweep, points,
                           cache=ResultCache(run.fresh_dir("cache")),
                           max_workers=WORKERS, timings=pooled)
    workers = max(1, pooled.workers)
    clear_memo()
    gc.collect()
    serial, untraced_s = _timed(run.attempt, run_sweep, points,
                                cache=ResultCache(run.fresh_dir("cache")),
                                parallel=False)
    run.check(serial == expected, "serial sweep differs from pooled")
    clear_memo()
    gc.collect()
    cache = ResultCache(run.fresh_dir("cache"))
    with spans.Tracer() as tracer:
        with tracer.root("figures"):
            traced, traced_s = _timed(run.attempt, run_sweep, points,
                                      cache=cache, parallel=False)
            for _ in range(FIGURES_WARM_PASSES):
                warm = run.attempt(run_sweep, points, cache=cache)
                run.check(warm == expected, "traced warm pass differs")
    run.check(traced == expected, "traced sweep differs from pooled")
    if expected is not None:
        run.digest_parts["results"] = common.result_digest(
            _keyed(points, expected))
    extra = _simulated_ratios(expected or [])
    extra["sweep.worker_busy_frac"] = \
        pooled.run_s / (workers * pooled.wall_s) if pooled.wall_s else 0.0
    extra["sweep.pool_overhead_s"] = \
        pooled.wall_s - pooled.run_s / workers - pooled.cache_s
    extra["trace_overhead_pct"] = _overhead_pct(traced_s, untraced_s)
    _finish_trace(run, tracer, extra)


# -- missheavy -------------------------------------------------------------


def _missheavy_setup(run: Run):
    """Memo priming plus a small-scale pass over the same configs, so
    lazy imports and first-use tables are paid here."""
    from repro.sim.sweep import run_point
    from repro.workloads.registry import clear_memo, generate
    clear_memo()
    points = missheavy_points(run.seed)
    for point in missheavy_points(run.seed, MISSHEAVY_WARMUP_SCALE):
        run_point(point)
    for point in points:
        generate(point.workload, point.config.num_processors,
                 scale=point.scale, seed=point.seed)
    return points


def _missheavy_pass(run: Run, points, expected, per_point) -> list:
    from repro.sim.sweep import run_point
    results = []
    for index, point in enumerate(points):
        result, elapsed = _timed(run.attempt, run_point, point)
        per_point[index].append(elapsed)
        results.append(result)
    if expected:
        run.check(results == expected, "miss-heavy results changed "
                  "between passes")
    return results


def run_missheavy(run: Run) -> None:
    """Closed loop, in process: passes over four miss-heavy points on
    memoized traces. A pass is the batch, each point a job."""
    points = run.time_setup(lambda: _missheavy_setup(run))
    per_point: List[List[float]] = [[] for _ in points]
    expected: list = []
    if run.trace:
        return _missheavy_traced(run, points, per_point)
    for _ in run.rounds():
        gc.collect()
        results, elapsed = _timed(_missheavy_pass, run, points, expected,
                                  per_point)
        run.batch_s.append(elapsed)
        expected = expected or results
    run.peak_rss_mb = common.peak_rss_mb()
    run.job_ms = [1000.0 * value for values in per_point
                  for value in values]
    medians = [common.percentile(values, 0.5) for values in per_point]
    run.detail["accesses_per_s"] = _accesses(expected) / sum(medians)
    run.detail["point_median_s"] = medians
    run.digest_parts["results"] = common.result_digest(
        _keyed(points, expected))
    _reference_check(run, points, expected)


def _reference_check(run: Run, points, results) -> None:
    """The cheapest point again on ``SmpSystem.run_reference``, the
    layered executable specification of the fast engine."""
    from repro.sim.sweep import build_system
    from repro.workloads.registry import generate
    index = min(range(len(points)),
                key=lambda i: points[i].config.num_processors
                * sum(results[i].per_cpu_cycles))
    point = points[index]
    workload = generate(point.workload, point.config.num_processors,
                        scale=point.scale, seed=point.seed)
    expected = run.attempt(build_system(point.config).run_reference,
                           workload)
    run.check(expected == results[index],
              f"point {index} differs from run_reference")


def _missheavy_traced(run: Run, points, per_point) -> None:
    untraced = []
    expected: list = []
    for _ in range(2):
        gc.collect()
        results, elapsed = _timed(_missheavy_pass, run, points, expected,
                                  per_point)
        untraced.append(elapsed)
        expected = expected or results
    traced = []
    with spans.Tracer() as tracer:
        with tracer.root("missheavy"):
            for _ in range(2):
                _, elapsed = _timed(_missheavy_pass, run, points,
                                    expected, per_point)
                traced.append(elapsed)
    run.digest_parts["results"] = common.result_digest(
        _keyed(points, expected))
    extra = _simulated_ratios(expected)
    extra["trace_overhead_pct"] = _overhead_pct(min(traced), min(untraced))
    _finish_trace(run, tracer, extra)


# -- fork ------------------------------------------------------------------


def _fork_setup(run: Run):
    """A two-point chain through a scratch store: checkpoint, pickle
    and store code paths are warm before the first timed chain."""
    from repro.sim.sweep import run_sweep
    families = fork_families(run.seed)
    _, family = families[0]
    run_sweep([replace(point, scale=scale) for point, scale
               in zip(family[:2], (0.02, 0.04))], parallel=False,
              checkpoint_dir=run.fresh_dir("warm-store"))
    return families


def _fork_round(run: Run, chain_points, state: dict,
                parts: Dict[str, List[float]]) -> Optional[float]:
    """The batch: the scale sweep chained into an empty checkpoint
    store, then one forked fault campaign. The jobs: every point
    re-forked alone from the filled store. Returns the batch seconds."""
    from repro.faults import campaign
    from repro.sim.sweep import run_sweep
    store = run.fresh_dir("store")
    gc.collect()
    chain, chain_s = _timed(run.attempt, run_sweep, chain_points,
                            parallel=False, checkpoint_dir=store)
    report, campaign_s = _timed(run.attempt, campaign.run_campaign,
                                **campaign_kwargs(run.seed))
    if chain is None or report is None:
        return None
    parts.setdefault("chain", []).append(chain_s)
    parts.setdefault("campaign", []).append(campaign_s)
    state.setdefault("chain", chain)
    run.check(chain == state["chain"], "chain results changed between "
              "rounds")
    digest = common.report_digest(report)
    state.setdefault("campaign", digest)
    run.check(digest == state["campaign"], "campaign report changed "
              "between rounds")
    run.check(report["forked_cells"] == len(report["entries"]),
              "campaign cells ran cold")
    gc.collect()
    for point, expected in zip(chain_points, chain):
        refork, elapsed = _timed(run.attempt, run_sweep, [point],
                                 parallel=False, checkpoint_dir=store)
        run.job_ms.append(1000.0 * elapsed)
        run.check(refork == [expected], "a re-forked point differs "
                  "from the chain's result")
    shutil.rmtree(store, ignore_errors=True)
    return chain_s + campaign_s


def run_fork(run: Run) -> None:
    """Closed loop, in process: each round chains the scale sweep into
    an empty checkpoint store and runs a forked campaign (batch), then
    re-forks every point alone from the filled store (jobs)."""
    families = run.time_setup(lambda: _fork_setup(run))
    chain_points = [point for _, family in families for point in family]
    state: dict = {}
    parts: Dict[str, List[float]] = {}
    if run.trace:
        return _fork_traced(run, chain_points, state, parts)
    for _ in run.rounds():
        batch_s = _fork_round(run, chain_points, state, parts)
        if batch_s is not None:
            run.batch_s.append(batch_s)
    run.peak_rss_mb = common.peak_rss_mb()
    run.detail["part_median_s"] = {
        part: common.percentile(values, 0.5)
        for part, values in parts.items()}
    _fork_digest(run, chain_points, state)


def _fork_digest(run: Run, chain_points, state: dict) -> None:
    if "chain" not in state:
        return
    run.digest_parts["chain"] = common.result_digest(
        _keyed(chain_points, state["chain"]))
    if "campaign" in state:
        run.digest_parts["campaign"] = state["campaign"]
    _spot_check(run, chain_points, state["chain"], FORK_SPOT_CHECKS,
                "fork")


def _fork_traced(run: Run, chain_points, state, parts) -> None:
    untraced_s = _fork_round(run, chain_points, state, parts)
    with spans.Tracer() as tracer:
        with tracer.root("fork"):
            traced_s = _fork_round(run, chain_points, state, parts)
    _fork_digest(run, chain_points, state)
    extra = _simulated_ratios(state.get("chain", []))
    extra["trace_overhead_pct"] = _overhead_pct(traced_s, untraced_s) \
        if traced_s and untraced_s else 0.0
    _finish_trace(run, tracer, extra)


# -- serve -----------------------------------------------------------------


class _Server:
    """An in-process Scheduler behind ServeHTTP on an event loop thread,
    as ``repro serve`` runs it (journal and point deadline on)."""

    def __init__(self, loop, root: Path, runner=None):
        from repro.serve.client import ServeClient
        from repro.serve.http import ServeHTTP
        from repro.serve.scheduler import Scheduler
        from repro.sim.sweep import ResultCache

        async def boot():
            scheduler = Scheduler(cache=ResultCache(root / "cache"),
                                  max_workers=WORKERS,
                                  journal=root / "state",
                                  point_timeout=300.0, runner=runner)
            await scheduler.start()
            return await ServeHTTP(scheduler, port=0).start()

        import asyncio
        self.loop = loop
        self._asyncio = asyncio
        self.http = asyncio.run_coroutine_threadsafe(
            boot(), loop).result(timeout=120)
        self.scheduler = self.http.scheduler
        self.client = ServeClient(port=self.http.port, timeout=60.0)
        deadline = time.monotonic() + 60
        while not self.client.readyz().get("ready"):
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def wait(self, job_ids: Sequence[str], timeout: float = 120.0) -> None:
        jobs = [self.scheduler.jobs[job_id] for job_id in job_ids]
        deadline = time.monotonic() + timeout
        while not all(job.terminal for job in jobs):
            if time.monotonic() > deadline:
                raise RuntimeError("served jobs did not finish in time")
            time.sleep(0.002)

    def stop(self) -> None:
        self._asyncio.run_coroutine_threadsafe(
            self.http.drain(timeout=60), self.loop).result(timeout=90)


def _start_loop():
    import asyncio
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="serve-loop",
                              daemon=True)
    thread.start()
    return loop, thread


def _stop_loop(loop, thread) -> None:
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    loop.close()
    # The fork server is a child of this process and the parent of
    # every serve worker: stop and reap it, so the workers' peak RSS
    # reaches RUSAGE_CHILDREN. (Its resource tracker exits by itself
    # once this process ends; run.py reaps it.)
    from multiprocessing import forkserver
    stop = getattr(forkserver._forkserver, "_stop", None)
    if stop is not None:
        stop()


def _serve_setup(run: Run, loop, servers: list, runner=None) -> _Server:
    """Boot to ready, then prime: the hot set lands in the cache and
    every worker memoizes the novel program's trace."""
    server = _Server(loop, run.fresh_dir("server"), runner)
    servers.append(server)
    priming = serve_hot_set() + [
        job[0] for _, job in serve_jobs(run.seed, "priming", 20,
                                        PRIMING_INTERVAL_BASE)]
    job = server.client.submit(priming, tenant="priming")
    server.wait([job["id"]])
    return server


def _stop(server: _Server, servers: list) -> None:
    servers.remove(server)
    server.stop()


def _open_loop(run: Run, server: _Server, duration_s: float,
               samples: Dict[str, list]) -> List[str]:
    """Poisson arrivals from one generator thread; latency counts from
    each job's due time, so generator stalls are charged to the jobs."""
    schedule = open_loop_schedule(run.seed, duration_s)
    jobs = serve_jobs(run.seed, "open", len(schedule), OPEN_INTERVAL_BASE)
    ids = []
    start_perf = time.perf_counter() + 0.05
    start_wall = time.time() + (start_perf - time.perf_counter())
    for due, (tenant, points) in zip(schedule, jobs):
        delay = start_perf + due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        summary = run.attempt(server.client.submit, points, tenant=tenant)
        samples["submit_ms"].append(1000.0 * (time.perf_counter() - sent))
        samples["lateness_ms"].append(
            1000.0 * (sent - (start_perf + due)))
        if summary is not None:
            ids.append(summary["id"])
            samples["due_wall"][summary["id"]] = start_wall + due
            samples["due_perf"][summary["id"]] = start_perf + due
    server.wait(ids)
    return ids


def _serve_samples() -> Dict[str, object]:
    """Per-run serve bookkeeping: submit round trips, generator
    lateness, and each job's due time on the wall and perf clocks."""
    return {"submit_ms": [], "lateness_ms": [], "due_wall": {},
            "due_perf": {}}


def _burst(run: Run, server: _Server, burst: int,
           samples: Dict[str, list]) -> Tuple[List[str], float]:
    """SERVE_BURST_JOBS novel jobs all due at once; returns their ids
    and the seconds until the last one finished."""
    jobs = serve_jobs(run.seed, f"burst{burst}", SERVE_BURST_JOBS,
                      burst_interval_base(burst))
    due_wall, due_perf = time.time(), time.perf_counter()
    ids = []
    for tenant, points in jobs:
        summary = run.attempt(server.client.submit, points, tenant=tenant)
        if summary is not None:
            ids.append(summary["id"])
            samples["due_wall"][summary["id"]] = due_wall
            samples["due_perf"][summary["id"]] = due_perf
    server.wait(ids)
    finished = [server.scheduler.jobs[job_id].finished_s for job_id in ids]
    return ids, max(finished) - due_wall


def _job_outcomes(run: Run, server: _Server, ids: Sequence[str],
                  samples) -> List[float]:
    """Latencies (ms, due to finished) of the jobs; failed jobs and
    served errors count as failures."""
    latencies = []
    for job_id in ids:
        job = server.scheduler.jobs[job_id]
        errors = [error for error in job.errors if error is not None]
        run.check(job.state == "done" and not errors,
                  f"{job_id} {job.state}: {errors[:1]}")
        latencies.append(
            1000.0 * (job.finished_s - samples["due_wall"][job_id]))
    return latencies


def _served_results(server: _Server, ids: Sequence[str]):
    from repro.serve.jobs import result_from_dict
    pairs = []
    for job_id in ids:
        job = server.scheduler.jobs[job_id]
        for point, payload in zip(job.spec.points, job.results):
            if payload is not None:
                pairs.append((point, result_from_dict(payload)))
    return pairs


def _serve_checks(run: Run, server: _Server,
                  bursts: Sequence[Sequence[str]],
                  open_ids: Sequence[str]) -> None:
    """Digests of the hot set and of each burst; a seeded sample of
    the open-loop jobs recomputed in-process."""
    from repro.sim.sweep import point_key
    hot = serve_hot_set()
    hot_results = [server.scheduler.cache.load(point) for point in hot]
    run.digest_parts["hot"] = common.result_digest(_keyed(hot, hot_results))
    for burst, ids in enumerate(bursts):
        served = {point_key(point): result
                  for point, result in _served_results(server, ids)}
        run.digest_parts[f"burst{burst}"] = common.result_digest(
            served.items())
    pairs = _served_results(server, open_ids)
    sample = random.Random(f"{run.seed}:serve-spot").sample(
        range(len(pairs)), min(SERVE_SPOT_CHECKS, len(pairs)))
    points = [pairs[i][0] for i in sample] + hot
    results = [pairs[i][1] for i in sample] + hot_results
    _spot_check(run, points, results, len(points), "serve")


def run_serve(run: Run) -> None:
    """Open loop: Poisson jobs at SERVE_RATE/s from one generator
    thread for SERVE_OPEN_SHARE of --seconds (jobs), then bursts of
    novel jobs all due at once (batches)."""
    loop, thread = _start_loop()
    servers: list = []
    try:
        if run.trace:
            return _serve_traced(run, loop, servers)
        server = run.time_setup(lambda: _serve_setup(run, loop, servers),
                                discard=lambda old: _stop(old, servers))
        samples = _serve_samples()
        open_ids = _open_loop(run, server,
                              SERVE_OPEN_SHARE * run.seconds, samples)
        run.job_ms = _job_outcomes(run, server, open_ids, samples)
        bursts = []
        for burst in range(SERVE_BURSTS):
            ids, drain_s = _burst(run, server, burst, samples)
            _job_outcomes(run, server, ids, samples)
            run.batch_s.append(drain_s)
            bursts.append(ids)
    finally:
        for stopping in servers:
            stopping.stop()
        _stop_loop(loop, thread)
    run.peak_rss_mb = common.peak_rss_mb()
    lateness_p95 = common.percentile(samples["lateness_ms"], 0.95)
    run.detail.update({
        "lateness_p95_ms": lateness_p95,
        "valid": lateness_p95 <= SERVE_MAX_LATENESS_MS,
        "drain_jobs_per_s": [SERVE_BURST_JOBS / value
                             for value in run.batch_s],
        "submit_rtt_p50_ms": common.percentile(samples["submit_ms"], 0.5),
    })
    _serve_checks(run, server, bursts, open_ids)


def _serve_traced(run: Run, loop, servers: list) -> None:
    """Untraced reference open loop, then a second server whose
    workers run :func:`spans.traced_point_runner` while this process
    traces the client, fair queue and result cache."""
    half = SERVE_OPEN_SHARE * run.seconds / 2
    server = _serve_setup(run, loop, servers)
    samples = _serve_samples()
    ids = _open_loop(run, server, half, samples)
    untraced_p50 = common.percentile(
        _job_outcomes(run, server, ids, samples), 0.5)
    _stop(server, servers)
    server = _serve_setup(run, loop, servers,
                          runner=spans.traced_point_runner)
    samples = _serve_samples()
    before = dict(server.scheduler.counters)
    with spans.Tracer(SERVE_MAIN_LAYERS) as tracer:
        with tracer.root("serve"):
            open_ids = _open_loop(run, server, half, samples)
            burst_ids, drain_s = _burst(run, server, 0, samples)
    traced = _job_outcomes(run, server, open_ids, samples)
    bursts = _job_outcomes(run, server, burst_ids, samples)
    for job_id, latency_ms in zip(open_ids + burst_ids, traced + bursts):
        tracer.add_span("serve.job", "job", job_id,
                        int(samples["due_perf"][job_id] * 1e9),
                        int(latency_ms * 1e6))
    _serve_checks(run, server, [burst_ids], open_ids)
    counters = {name: value - before.get(name, 0)
                for name, value in server.scheduler.counters.items()}
    executed = []
    for job_id in open_ids + burst_ids:
        for event in server.scheduler.jobs[job_id].events:
            if event["name"] == "point_done" and \
                    event["args"]["source"] == "executed":
                executed.append(event["dur"] / 1000.0)
    points = sum(counters.get(name, 0) for name in (
        "serve.points_executed", "serve.points_cache_hits",
        "serve.points_deduped"))
    waits = tracer.queue_waits_ms()
    extra = {
        "serve.submit_rtt_ms": common.percentile(samples["submit_ms"], 0.5),
        "serve.queue_wait_p50_ms": common.percentile(waits, 0.5),
        "serve.queue_wait_p90_ms": common.percentile(waits, 0.9),
        "serve.exec_p50_ms": common.percentile(executed, 0.5),
        "serve.cache_hit_ratio":
            counters.get("serve.points_cache_hits", 0) / points,
        "serve.dedup_ratio": counters.get("serve.points_deduped", 0) / points,
        "serve.worker_busy_frac":
            sum(executed) / 1000.0 / (WORKERS * spans.seconds(
                tracer.root_ns)),
        "trace_overhead_pct": _overhead_pct(
            common.percentile(traced, 0.5), untraced_p50),
    }
    served = [result for _, result in
              _served_results(server, open_ids + burst_ids)]
    extra.update(_simulated_ratios(served))
    run.detail["burst_drain_s"] = drain_s
    _finish_trace(run, tracer, extra,
                  worker=spans.worker_totals(counters))


# -- entry point -----------------------------------------------------------


RUNNERS = {
    "figures": run_figures,
    "missheavy": run_missheavy,
    "fork": run_fork,
    "serve": run_serve,
}


def end_to_end_metrics(run: Run) -> Dict[str, dict]:
    setup = run.import_s + common.percentile(run.setup_s, 0.5)
    peak = run.peak_rss_mb if run.peak_rss_mb is not None \
        else common.peak_rss_mb()
    values = {"setup_s": metric(setup, "s"),
              "peak_rss_mb": metric(peak, "MB")}
    if run.batch_s:
        values["batch_s"] = metric(common.percentile(run.batch_s, 0.5),
                                   "s")
    if run.job_ms:
        values["job_p50_ms"] = metric(common.percentile(run.job_ms, 0.5),
                                      "ms")
    return values


def execute(workload: str, seed: int, seconds: float, trace: bool,
            import_s: float) -> dict:
    run = Run(workload, seed, seconds, trace, import_s)
    load_before = common.load_average()
    started = time.perf_counter()
    try:
        RUNNERS[workload](run)
        _check_golden(run)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        run.attempted += 1
        run.fail(f"{type(exc).__name__}: {exc}")
    finally:
        run.close()
    metrics = run.layer if trace else end_to_end_metrics(run)
    if run.job_ms:
        run.detail["job_ms"] = common.latency_summary(run.job_ms)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "errors": run.errors,
        "metrics": metrics,
        "samples": {"setup_s": run.setup_s, "import_s": run.import_s,
                    "batch_s": run.batch_s, "job_ms": run.job_ms},
        "detail": run.detail,
        "wall_s": time.perf_counter() - started,
        "load_before": load_before,
        "load_after": common.load_average(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    import repro.serve  # noqa: F401 - every layer the workloads touch
    import repro.sim.checkpoint  # noqa: F401
    import repro.faults.campaign  # noqa: F401
    import repro.workloads.registry  # noqa: F401
    import_s = time.perf_counter() - start
    outcome = execute(args.workload, args.seed, args.seconds,
                      bool(args.trace), import_s)
    args.out.write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
