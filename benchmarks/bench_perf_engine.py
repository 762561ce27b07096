"""Engine throughput — simulated accesses per wall-clock second.

Not a paper figure: this bench tracks the *simulator's* speed so
performance regressions in the hot path are caught. It times two
points on the three machine flavours and writes ``BENCH_engine.json``
at the repo root with absolute throughputs and the speedup over the
recorded pre-fastpath engine:

- **hit-heavy**: the fft kernel on the default 1 MB L2 (>90% hits) —
  dominated by the merged fast path;
- **miss-heavy**: the ocean model on a 64 KB L2 (~73% hits) —
  dominated by the slow path (coherence protocol, bus arbitration,
  security layers), the target of the DESIGN.md §6c streamlining.

Run directly (``python benchmarks/bench_perf_engine.py --check``) the
module is a regression gate instead of a pytest bench: it re-measures
the six throughput points fresh and compares them against the
committed ``BENCH_engine.json``, failing if any point slowed down by
more than ``--threshold`` percent (default 25). The committed file's
own scale is reused so the comparison is like-for-like. Absolute
gates ride along: the committed recording overhead must stay within
its budget, and when the committed report carries a ``serving``
section the warm/cold speedup is re-measured fresh and gated at
``SERVING_MIN_SPEEDUP``.

It also records an **observability** point (DESIGN.md §6d): the
miss-heavy senss machine untraced, with a full ``repro.obs.Tracer``
attached, and with a category-filtered tracer (senss+memprotect
only), asserting the untraced run pays no measurable overhead for
the observer hooks (budget: 2%), that filtering lands under the
full-tracing cost, and that tracing leaves simulated cycles
bit-identical either way.

A **recording** point (docs/record_replay.md) rides along: the same
miss-heavy senss machine untraced vs with a full ``repro.obs.Recorder``
(lossless event log + stats snapshots) attached. Recording must never
change simulated cycles, and a run with recording disabled must cost
the interleaved noise floor (budget: 2%) — the same gate ``--check``
re-asserts against the committed report.

Finally it records a **serving** point (docs/serving.md): the same
sweep submitted ``SERVING_SUBMISSIONS`` times, cold (a fresh
``run_sweep`` pool per client, no cache) vs warm (one persistent
``repro.serve`` server over localhost HTTP, warm worker pool and
shared result cache, alternating tenants). Results must be
bit-identical between the two paths and the warm speedup is gated
at ``SERVING_MIN_SPEEDUP``.

Two **checkpointing** points (docs/checkpointing.md) ride along: a
scale-axis sweep run cold per point vs chained through the
prefix-sharing executor (each point forks the previous point's end
snapshot and simulates only its tail), and a fault campaign with the
shared clean prefix simulated once vs once per cell. Both must
produce bit-identical results to their cold legs and their speedups
are gated at ``CHECKPOINT_MIN_SPEEDUP`` / ``CAMPAIGN_MIN_SPEEDUP``;
``--check`` re-measures them (and the serving gate) in a fresh
subprocess (``--gates-only``) so the ratios aren't taxed by the heap
the in-process throughput sweep grows.

Reference throughputs were measured on the seed engine (linear-scan
scheduler, per-access NamedTuples, StatsRegistry on the hot path) on
the same machine/scale this bench defaults to; the speedup column is
only meaningful on comparable hardware, so the assertion is a loose
sanity floor rather than the ~3x the rewrite achieves here.
"""

import gc
import json
import os
import pathlib
import time

from conftest import (BENCH_SCALE, BENCH_SEED, baseline_config,
                     senss_config, workload)

from repro.config import KB, SystemConfig
from repro.sim.sweep import build_system
from repro.workloads.registry import generate

CPUS = 4
L2_MB = 1
WORKLOAD = "fft"
#: best-of-N per point; raise via env on noisy machines — the
#: observability/fault-hook budgets assert against the measured noise
#: floor, so they need enough repeats to find a quiet slot.
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))

MISSHEAVY_WORKLOAD = "ocean"
MISSHEAVY_L2_KB = 64

#: accesses/second of the pre-fastpath seed engine at scale 0.5 on the
#: reference machine (best of 3); denominators for the speedup column.
SEED_THROUGHPUT = {
    "baseline": 191234,
    "senss": 176465,
    "integrated": 189117,
}

#: the warm server must beat cold per-client sweeps by at least this
#: factor on repeated submissions (gated by --check).
SERVING_MIN_SPEEDUP = 3.0
SERVING_SUBMISSIONS = 3
SERVING_SEEDS = 4
SERVING_CPUS = 2
SERVING_WORKERS = 2

#: a prefix-sharing checkpoint chain over a scale axis must beat cold
#: per-point runs by at least this factor (gated by --check). The
#: measured margin is ~2.3x (1.7-2.7x over repeated runs on a 2-vCPU
#: shared host); the floor keeps the same ~2/3 noise allowance the
#: original 2x-of-3x floor had. The earlier ~3.5x was measured against
#: a cold leg that ran on the slower, since removed, vector backend.
CHECKPOINT_MIN_SPEEDUP = 1.5
CHECKPOINT_WORKLOAD = "radix"
CHECKPOINT_CPUS = 2
CHECKPOINT_SCALES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
#: small caches keep the snapshot blob (dominated by resident
#: CacheLine objects) cheap to pickle — with the default 64K L1 /
#: 1M L2 the capture/restore pickling eats most of the tail savings.
CHECKPOINT_L1_KB = 8
CHECKPOINT_L2_KB = 32
#: a forked fault campaign must beat cold per-cell prefix simulation
#: by at least this factor (gated by --check).
CAMPAIGN_MIN_SPEEDUP = 2.0
CAMPAIGN_SCALE = 0.2
#: deep enough that the shared clean prefix dominates each cell, and
#: below every bus-fault cell's event count at CAMPAIGN_SCALE so all
#: cells actually fork (triggers past the event space run clean).
CAMPAIGN_TRIGGER = 70


def integrated_config() -> SystemConfig:
    return senss_config(CPUS, L2_MB).with_memprotect(
        encryption_enabled=True, integrity_enabled=True)


def measure(config: SystemConfig, bench_workload) -> dict:
    accesses = bench_workload.total_accesses
    best = None
    for _ in range(REPEATS):
        system = build_system(config)
        start = time.perf_counter()
        result = system.run(bench_workload)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return {
        "accesses": accesses,
        "seconds": round(best, 4),
        "accesses_per_second": round(accesses / best),
        "cycles": result.cycles,
    }


def hitheavy_configs():
    return {
        "baseline": baseline_config(CPUS, L2_MB),
        "senss": senss_config(CPUS, L2_MB),
        "integrated": integrated_config(),
    }


def missheavy_configs():
    small = MISSHEAVY_L2_KB * KB
    return {kind: config.with_l2_size(small)
            for kind, config in hitheavy_configs().items()}


def measure_serving(scale: float) -> dict:
    """Warm-server vs cold-client throughput on repeated sweeps.

    **Cold**: each of ``SERVING_SUBMISSIONS`` clients runs the same
    sweep through :func:`run_sweep` with a fresh worker pool and no
    cache — the pre-service topology, paying interpreter spawn +
    imports + warmup per client. **Warm**: one ``repro.serve`` server
    (warm pool booted outside the timed region — that is the point:
    it survives across jobs) takes the same submissions over HTTP
    from two alternating tenants; the first executes once on the warm
    pool, the rest are served from the shared cache/dedup path.
    ``warm_speedup`` is the gated ratio
    (:data:`SERVING_MIN_SPEEDUP`).
    """
    import asyncio
    import tempfile
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.http import ServeHTTP
    from repro.serve.scheduler import Scheduler
    from repro.sim.sweep import ResultCache, SweepPoint, run_sweep

    config = baseline_config(SERVING_CPUS, L2_MB)
    points = [SweepPoint(WORKLOAD, config, scale=scale, seed=seed)
              for seed in range(SERVING_SEEDS)]
    total_points = len(points) * SERVING_SUBMISSIONS

    start = time.perf_counter()
    cold_results = None
    for _ in range(SERVING_SUBMISSIONS):
        cold_results = run_sweep(points, cache=None, parallel=True,
                                 max_workers=SERVING_WORKERS)
    cold_s = time.perf_counter() - start

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    with tempfile.TemporaryDirectory() as cache_dir:
        async def boot():
            # Journal + point deadline on: the resilience layer
            # (docs/resilience.md) must be free when nothing fails,
            # so the gated speedup is measured with it enabled.
            scheduler = Scheduler(cache=ResultCache(cache_dir),
                                  max_workers=SERVING_WORKERS,
                                  journal=pathlib.Path(cache_dir)
                                  / "state",
                                  point_timeout=300.0)
            await scheduler.start()
            return await ServeHTTP(scheduler, port=0).start()

        server = asyncio.run_coroutine_threadsafe(
            boot(), loop).result(timeout=120)
        client = ServeClient(port=server.port)
        warm_results = None
        start = time.perf_counter()
        for index in range(SERVING_SUBMISSIONS):
            tenant = "alice" if index % 2 == 0 else "bob"
            job = client.submit(points, tenant=tenant)
            client.wait(job["id"])
            warm_results = client.results(job["id"])
        warm_s = time.perf_counter() - start
        asyncio.run_coroutine_threadsafe(server.drain(),
                                         loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)

    # Serving is only a win if it serves the same simulation.
    for served, direct in zip(warm_results, cold_results):
        assert served.cycles == direct.cycles, (served, direct)
        assert served.stats == direct.stats, (served, direct)

    cold_pps = total_points / cold_s
    warm_pps = total_points / warm_s
    return {
        "workload": WORKLOAD, "num_cpus": SERVING_CPUS,
        "scale": scale, "points_per_submission": len(points),
        "submissions": SERVING_SUBMISSIONS,
        "workers": SERVING_WORKERS,
        "cold": {"seconds": round(cold_s, 4),
                 "points_per_second": round(cold_pps, 2)},
        "warm": {"seconds": round(warm_s, 4),
                 "points_per_second": round(warm_pps, 2)},
        "warm_speedup": round(warm_pps / cold_pps, 2),
    }


def checkpoint_config() -> SystemConfig:
    from dataclasses import replace

    config = senss_config(CHECKPOINT_CPUS, L2_MB).with_l2_size(
        CHECKPOINT_L2_KB * KB)
    return replace(config, l1=replace(config.l1,
                                      size_bytes=CHECKPOINT_L1_KB * KB))


def measure_checkpointing() -> dict:
    """Cold per-point scale sweep vs the prefix-sharing chain.

    The scale axis is the shape ``run_sweep(checkpoint_dir=...)``
    chains: every point is the same trace prefix, so point *k* forks
    point *k-1*'s end snapshot and simulates only its tail. **Cold**
    runs every point from reset; **chain** runs :func:`run_chain`
    against a fresh store (the first point pays full price and seeds
    the chain). ``chain_speedup`` is the gated ratio
    (:data:`CHECKPOINT_MIN_SPEEDUP`).
    """
    import tempfile

    from repro.sim.checkpoint import CheckpointStore, run_chain
    from repro.sim.sweep import SweepPoint, run_point

    config = checkpoint_config()
    points = [SweepPoint(CHECKPOINT_WORKLOAD, config, scale=scale,
                         seed=BENCH_SEED) for scale in CHECKPOINT_SCALES]
    # Grow the points' one trace family to the largest scale outside
    # both timed legs — trace synthesis cost is identical either way
    # and would drown the executor difference at these point sizes;
    # each leg then only copies its prefixes.
    generate(CHECKPOINT_WORKLOAD, CHECKPOINT_CPUS,
             scale=max(CHECKPOINT_SCALES), seed=BENCH_SEED)

    cold_s = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        cold_results = [run_point(point) for point in points]
        elapsed = time.perf_counter() - start
        cold_s = elapsed if cold_s is None else min(cold_s, elapsed)

    chain_s = None
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as root:
            start = time.perf_counter()
            chain = run_chain(points, CheckpointStore(root))
            elapsed = time.perf_counter() - start
        chain_s = elapsed if chain_s is None else min(chain_s, elapsed)

    # Prefix sharing is only a win if the forked runs ARE the runs.
    for direct, (forked, _, error) in zip(cold_results, chain):
        assert error is None, chain
        assert forked == direct, (forked, direct)

    return {
        "workload": CHECKPOINT_WORKLOAD, "num_cpus": CHECKPOINT_CPUS,
        "l1_kb": CHECKPOINT_L1_KB, "l2_kb": CHECKPOINT_L2_KB,
        "scales": list(CHECKPOINT_SCALES),
        "cold": {"seconds": round(cold_s, 4),
                 "points_per_second": round(len(points) / cold_s, 2)},
        "chain": {"seconds": round(chain_s, 4),
                  "points_per_second": round(len(points) / chain_s, 2)},
        "chain_speedup": round(cold_s / chain_s, 2),
    }


def measure_fault_campaign() -> dict:
    """Fault campaign with forked clean prefixes vs cold per cell.

    Every (kind, policy) cell of a campaign simulates the same clean
    prefix up to its trigger; with ``fork=True`` that prefix runs
    once and each cell restores the deepest snapshot preceding its
    trigger. Reports must match cell for cell modulo the fork
    bookkeeping keys. ``fork_speedup`` is the gated ratio
    (:data:`CAMPAIGN_MIN_SPEEDUP`).
    """
    from repro.faults.campaign import run_campaign
    from repro.faults.plan import FaultKind
    from repro.faults.recovery import POLICIES

    kwargs = dict(kinds=FaultKind.BUS, policies=POLICIES,
                  workload=CHECKPOINT_WORKLOAD, cpus=CHECKPOINT_CPUS,
                  scale=CAMPAIGN_SCALE, seed=BENCH_SEED,
                  trigger=CAMPAIGN_TRIGGER)

    cold_s = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        cold_report = run_campaign(fork=False, **kwargs)
        elapsed = time.perf_counter() - start
        cold_s = elapsed if cold_s is None else min(cold_s, elapsed)

    fork_s = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        fork_report = run_campaign(fork=True, **kwargs)
        elapsed = time.perf_counter() - start
        fork_s = elapsed if fork_s is None else min(fork_s, elapsed)

    def stripped(report: dict) -> list:
        return [{key: value for key, value in entry.items()
                 if key != "forked"} for entry in report["entries"]]

    # Forking must not change a single cell's verdict.
    assert stripped(cold_report) == stripped(fork_report), (
        cold_report, fork_report)

    cells = len(fork_report["entries"])
    return {
        "workload": CHECKPOINT_WORKLOAD, "num_cpus": CHECKPOINT_CPUS,
        "scale": CAMPAIGN_SCALE, "trigger": CAMPAIGN_TRIGGER,
        "kinds": list(FaultKind.BUS), "policies": list(POLICIES),
        "cells": cells,
        "forked_cells": fork_report.get("forked_cells", 0),
        "cold": {"seconds": round(cold_s, 4),
                 "cells_per_second": round(cells / cold_s, 2)},
        "fork": {"seconds": round(fork_s, 4),
                 "cells_per_second": round(cells / fork_s, 2)},
        "fork_speedup": round(cold_s / fork_s, 2),
    }


def test_engine_throughput(benchmark, emit):
    from repro.analysis.report import format_table

    configs = hitheavy_configs()
    report = {"workload": WORKLOAD, "num_cpus": CPUS, "l2_mb": L2_MB,
              "scale": BENCH_SCALE, "configs": {}}
    rows = []
    for kind, config in configs.items():
        measured = measure(config, workload(WORKLOAD, CPUS))
        measured["seed_accesses_per_second"] = SEED_THROUGHPUT[kind]
        measured["speedup_vs_seed"] = round(
            measured["accesses_per_second"] / SEED_THROUGHPUT[kind], 2)
        report["configs"][kind] = measured
        rows.append([kind, f"{measured['accesses_per_second']:,}",
                     f"{SEED_THROUGHPUT[kind]:,}",
                     f"{measured['speedup_vs_seed']:.2f}x"])

    table = format_table(
        f"Engine throughput — {WORKLOAD}, {CPUS}P, {L2_MB}M L2, "
        f"scale {BENCH_SCALE:g} (accesses/s, best of {REPEATS})",
        ["config", "accesses/s", "seed engine", "speedup"], rows)
    emit(table)

    # Miss-heavy companion point: slow-path throughput tracking.
    missheavy_workload = generate(MISSHEAVY_WORKLOAD, CPUS,
                                  scale=BENCH_SCALE, seed=BENCH_SEED)
    report["missheavy"] = {"workload": MISSHEAVY_WORKLOAD,
                           "num_cpus": CPUS,
                           "l2_kb": MISSHEAVY_L2_KB,
                           "scale": BENCH_SCALE, "configs": {}}
    rows = []
    for kind, config in missheavy_configs().items():
        measured = measure(config, missheavy_workload)
        report["missheavy"]["configs"][kind] = measured
        rows.append([kind, f"{measured['accesses_per_second']:,}",
                     f"{measured['seconds']:.3f}"])
    table = format_table(
        f"Engine throughput, miss-heavy — {MISSHEAVY_WORKLOAD}, "
        f"{CPUS}P, {MISSHEAVY_L2_KB}K L2, scale {BENCH_SCALE:g} "
        f"(accesses/s, best of {REPEATS})",
        ["config", "accesses/s", "seconds"], rows)
    emit(table)

    # Observability point (DESIGN.md §6d): the observer hooks must be
    # ~free when no tracer is attached, and attaching one must not
    # change simulated results. Interleaved best-of-N on the
    # slow-path-heavy senss point (every hook site exercised): "ref"
    # and "off" run identical untraced code back to back, so their
    # ratio is the noise floor the disabled-overhead budget is
    # checked against — drift between separate batches would
    # otherwise swamp the single `is not None` test per hook. The
    # mode order rotates each repeat: allocator/cache drift within
    # the process is monotonic, so a fixed order would systematically
    # tax whichever mode runs later in the triple.
    # The "filtered" mode measures per-category filtering (DESIGN.md
    # §6d): a tracer recording only the senss/memprotect categories
    # never hooks the bus or the per-miss spans, so it skips the most
    # frequent events on miss-heavy runs (the bus route itself is the
    # same scratch route in every mode).
    from repro.obs import Tracer
    senss_small = missheavy_configs()["senss"]
    accesses = missheavy_workload.total_accesses
    modes = ("ref", "off", "on", "filtered")
    filtered_categories = frozenset({"senss", "memprotect"})
    best, cycles = {}, {}
    traced_events = filtered_events = 0
    for repeat in range(REPEATS):
        shift = repeat % len(modes)
        for mode in modes[shift:] + modes[:shift]:
            system = build_system(senss_small)
            if mode == "on":
                tracer = Tracer(capacity=1 << 20).attach(system)
            elif mode == "filtered":
                tracer = Tracer(capacity=1 << 20,
                                categories=filtered_categories
                                ).attach(system)
            # Drop the previous iteration's log before timing — its
            # collection otherwise lands inside the next run.
            gc.collect()
            start = time.perf_counter()
            result = system.run(missheavy_workload)
            elapsed = time.perf_counter() - start
            best[mode] = min(best.get(mode, elapsed), elapsed)
            cycles[mode] = result.cycles
            if mode == "on":
                traced_events = tracer.log.total_recorded
                tracer = None
            elif mode == "filtered":
                filtered_events = tracer.log.total_recorded
                tracer = None
            # Dropping the log promptly matters: megabytes of trace
            # columns alive through a later mode's timed region taxes
            # that mode and skews the ref/off noise floor.
    rates = {mode: round(accesses / seconds)
             for mode, seconds in best.items()}
    disabled_pct = round((rates["ref"] / rates["off"] - 1) * 100, 2)
    tracing_pct = round((rates["off"] / rates["on"] - 1) * 100, 2)
    filtered_pct = round(
        (rates["off"] / rates["filtered"] - 1) * 100, 2)
    report["observability"] = {
        "workload": MISSHEAVY_WORKLOAD, "num_cpus": CPUS,
        "l2_kb": MISSHEAVY_L2_KB, "scale": BENCH_SCALE,
        "config": "senss",
        "off": {"accesses": accesses,
                "seconds": round(best["off"], 4),
                "accesses_per_second": rates["off"],
                "cycles": cycles["off"]},
        "on": {"accesses": accesses,
               "seconds": round(best["on"], 4),
               "accesses_per_second": rates["on"],
               "cycles": cycles["on"],
               "events_recorded": traced_events},
        "filtered": {"accesses": accesses,
                     "categories": sorted(filtered_categories),
                     "seconds": round(best["filtered"], 4),
                     "accesses_per_second": rates["filtered"],
                     "cycles": cycles["filtered"],
                     "events_recorded": filtered_events},
        "overhead_when_disabled_percent": disabled_pct,
        "tracing_overhead_percent": tracing_pct,
        "filtered_overhead_percent": filtered_pct,
    }
    table = format_table(
        f"Observability overhead — senss, {MISSHEAVY_WORKLOAD}, "
        f"{MISSHEAVY_L2_KB}K L2 (accesses/s, best of {REPEATS})",
        ["mode", "accesses/s", "overhead"],
        [["hooks only (no tracer)", f"{rates['off']:,}",
          f"{disabled_pct:+.2f}%"],
         ["tracer attached (all categories)", f"{rates['on']:,}",
          f"{tracing_pct:+.2f}%"],
         ["tracer attached (senss,memprotect)",
          f"{rates['filtered']:,}", f"{filtered_pct:+.2f}%"]])
    emit(table)

    # Tracing never changes simulated time — filtered or not.
    assert cycles["ref"] == cycles["off"] == cycles["on"] \
        == cycles["filtered"]
    assert disabled_pct <= 2.0, report["observability"]
    # Filtering must recover most of the armed cost: a senss-only
    # tracer skips the bus observer, so it has to land well under the
    # full-tracing overhead.
    assert filtered_pct <= tracing_pct, report["observability"]
    assert filtered_events < traced_events, report["observability"]

    # Fault-hook point (docs/fault_injection.md): like the observer
    # hooks, the two fault-hook sites must be ~free when no injector
    # is attached, and an attached injector whose plan never triggers
    # must leave simulated cycles bit-identical. Same interleaved
    # ref/off/on discipline; "on" attaches an injector with one
    # never-firing spec per hook family on the integrated machine so
    # the bus, pad and verify hook sites all run. Same rotating mode
    # order as above.
    from repro.faults import FaultInjector, FaultKind, FaultPlan, \
        FaultSpec
    integrated_small = missheavy_configs()["integrated"]
    never = 1 << 40
    idle_plan = FaultPlan(specs=(
        FaultSpec(FaultKind.DROP, never),
        FaultSpec(FaultKind.PAD_CORRUPT, never, cpu=0),
        FaultSpec(FaultKind.MERKLE_FLIP, never)))
    fault_modes = ("ref", "off", "on")
    best, cycles = {}, {}
    for repeat in range(REPEATS):
        shift = repeat % len(fault_modes)
        for mode in fault_modes[shift:] + fault_modes[:shift]:
            system = build_system(integrated_small)
            if mode == "on":
                FaultInjector(idle_plan).attach(system)
            gc.collect()
            start = time.perf_counter()
            result = system.run(missheavy_workload)
            elapsed = time.perf_counter() - start
            best[mode] = min(best.get(mode, elapsed), elapsed)
            cycles[mode] = result.cycles
    rates = {mode: round(accesses / seconds)
             for mode, seconds in best.items()}
    disabled_pct = round((rates["ref"] / rates["off"] - 1) * 100, 2)
    armed_pct = round((rates["off"] / rates["on"] - 1) * 100, 2)
    report["fault_hooks"] = {
        "workload": MISSHEAVY_WORKLOAD, "num_cpus": CPUS,
        "l2_kb": MISSHEAVY_L2_KB, "scale": BENCH_SCALE,
        "config": "integrated",
        "off": {"accesses": accesses,
                "seconds": round(best["off"], 4),
                "accesses_per_second": rates["off"],
                "cycles": cycles["off"]},
        "on": {"accesses": accesses,
               "seconds": round(best["on"], 4),
               "accesses_per_second": rates["on"],
               "cycles": cycles["on"]},
        "overhead_when_disabled_percent": disabled_pct,
        "armed_overhead_percent": armed_pct,
    }
    table = format_table(
        f"Fault-hook overhead — integrated, {MISSHEAVY_WORKLOAD}, "
        f"{MISSHEAVY_L2_KB}K L2 (accesses/s, best of {REPEATS})",
        ["mode", "accesses/s", "overhead"],
        [["hooks only (no injector)", f"{rates['off']:,}",
          f"{disabled_pct:+.2f}%"],
         ["injector armed, never fires", f"{rates['on']:,}",
          f"{armed_pct:+.2f}%"]])
    emit(table)

    # A never-firing plan changes nothing and costs the noise floor.
    assert cycles["ref"] == cycles["off"] == cycles["on"]
    assert disabled_pct <= 2.0, report["fault_hooks"]

    # Recording point (docs/record_replay.md): a Recorder is a Tracer
    # that keeps every event plus stats snapshots, so "on" bounds the
    # full record-for-replay cost, while "off" (no recorder attached —
    # recording disabled) must pay nothing beyond the same observer
    # hooks the tracing budget already gates, and must keep simulated
    # cycles bit-identical to the untraced goldens. Unlike the points
    # above, the "on" leg is measured in its own batch after the
    # ref/off pairs: its lossless event log and stats snapshots
    # allocate megabytes per run, and interleaving those spikes between the ref/off runs visibly
    # skews the A/A noise floor the disabled budget is checked
    # against. The alternating ref/off pairs keep the drift
    # protection that matters for that gate.
    from repro.obs import Recorder
    best, cycles = {}, {}
    recorded_events = 0
    for repeat in range(REPEATS):
        pair = ("ref", "off") if repeat % 2 else ("off", "ref")
        for mode in pair:
            system = build_system(senss_small)
            gc.collect()
            start = time.perf_counter()
            result = system.run(missheavy_workload)
            elapsed = time.perf_counter() - start
            best[mode] = min(best.get(mode, elapsed), elapsed)
            cycles[mode] = result.cycles
    for repeat in range(REPEATS):
        system = build_system(senss_small)
        recorder = Recorder().attach(system)
        gc.collect()
        start = time.perf_counter()
        result = system.run(missheavy_workload)
        elapsed = time.perf_counter() - start
        best["on"] = min(best.get("on", elapsed), elapsed)
        cycles["on"] = result.cycles
        recorded_events = recorder.log.total_recorded
        # Drop the full event log before the next repeat's timing.
        recorder = None
    rates = {mode: round(accesses / seconds)
             for mode, seconds in best.items()}
    disabled_pct = round((rates["ref"] / rates["off"] - 1) * 100, 2)
    recording_pct = round((rates["off"] / rates["on"] - 1) * 100, 2)
    report["recording"] = {
        "workload": MISSHEAVY_WORKLOAD, "num_cpus": CPUS,
        "l2_kb": MISSHEAVY_L2_KB, "scale": BENCH_SCALE,
        "config": "senss",
        "off": {"accesses": accesses,
                "seconds": round(best["off"], 4),
                "accesses_per_second": rates["off"],
                "cycles": cycles["off"]},
        "on": {"accesses": accesses,
               "seconds": round(best["on"], 4),
               "accesses_per_second": rates["on"],
               "cycles": cycles["on"],
               "events_recorded": recorded_events},
        "overhead_when_disabled_percent": disabled_pct,
        "recording_overhead_percent": recording_pct,
    }
    table = format_table(
        f"Recording overhead — senss, {MISSHEAVY_WORKLOAD}, "
        f"{MISSHEAVY_L2_KB}K L2 (accesses/s, best of {REPEATS})",
        ["mode", "accesses/s", "overhead"],
        [["recording disabled", f"{rates['off']:,}",
          f"{disabled_pct:+.2f}%"],
         ["recorder attached (full event log)", f"{rates['on']:,}",
          f"{recording_pct:+.2f}%"]])
    emit(table)

    # Recording never changes simulated time, and not recording
    # costs the noise floor.
    assert cycles["ref"] == cycles["off"] == cycles["on"]
    assert disabled_pct <= 2.0, report["recording"]
    assert recorded_events > 0, report["recording"]

    # Serving point (docs/serving.md): warm persistent server vs cold
    # per-client run_sweep on repeated identical submissions — the
    # workload repro.serve exists for. A smaller scale keeps the cold
    # leg (which really spawns a fresh pool per client) affordable.
    report["serving"] = measure_serving(BENCH_SCALE * 0.2)
    serving = report["serving"]
    table = format_table(
        f"Simulation service — {serving['workload']}, "
        f"{serving['num_cpus']}P, {serving['points_per_submission']} "
        f"points x {serving['submissions']} submissions "
        f"(points/s, {serving['workers']} workers)",
        ["mode", "points/s", "seconds"],
        [["cold run_sweep per client",
          f"{serving['cold']['points_per_second']:,}",
          f"{serving['cold']['seconds']:.3f}"],
         ["warm server, shared cache",
          f"{serving['warm']['points_per_second']:,}",
          f"{serving['warm']['seconds']:.3f}"]])
    emit(table)
    emit(f"warm/cold speedup: {serving['warm_speedup']:.2f}x "
         f"(floor {SERVING_MIN_SPEEDUP:g}x)")
    assert serving["warm_speedup"] >= SERVING_MIN_SPEEDUP, serving

    # Checkpointing points (docs/checkpointing.md): the scale-axis
    # chain and the forked fault campaign, both asserted bit-identical
    # to their cold legs inside the measure functions.
    report["checkpointing"] = measure_checkpointing()
    chain = report["checkpointing"]
    table = format_table(
        f"Checkpoint chain — {chain['workload']}, "
        f"{chain['num_cpus']}P, {len(chain['scales'])} scales "
        f"{chain['scales'][0]:g}..{chain['scales'][-1]:g} "
        f"(points/s, best of {REPEATS})",
        ["mode", "points/s", "seconds"],
        [["cold per-point runs",
          f"{chain['cold']['points_per_second']:,}",
          f"{chain['cold']['seconds']:.3f}"],
         ["prefix-sharing chain",
          f"{chain['chain']['points_per_second']:,}",
          f"{chain['chain']['seconds']:.3f}"]])
    emit(table)
    emit(f"chain speedup: {chain['chain_speedup']:.2f}x "
         f"(floor {CHECKPOINT_MIN_SPEEDUP:g}x)")
    assert chain["chain_speedup"] >= CHECKPOINT_MIN_SPEEDUP, chain

    report["fault_campaign"] = measure_fault_campaign()
    campaign = report["fault_campaign"]
    table = format_table(
        f"Fault campaign — {campaign['workload']}, "
        f"{campaign['num_cpus']}P, {campaign['cells']} cells, "
        f"trigger {campaign['trigger']} (cells/s, best of {REPEATS})",
        ["mode", "cells/s", "seconds"],
        [["cold prefix per cell",
          f"{campaign['cold']['cells_per_second']:,}",
          f"{campaign['cold']['seconds']:.3f}"],
         ["forked clean prefix",
          f"{campaign['fork']['cells_per_second']:,}",
          f"{campaign['fork']['seconds']:.3f}"]])
    emit(table)
    emit(f"campaign fork speedup: {campaign['fork_speedup']:.2f}x "
         f"(floor {CAMPAIGN_MIN_SPEEDUP:g}x)")
    assert campaign["fork_speedup"] >= CAMPAIGN_MIN_SPEEDUP, campaign
    assert campaign["forked_cells"] == campaign["cells"], campaign

    out = pathlib.Path(__file__).parent.parent / "BENCH_engine.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    # Loose floor: even slow CI hardware should beat a fraction of the
    # reference machine's *seed* numbers given the ~3x engine rewrite.
    for kind, measured in report["configs"].items():
        assert measured["accesses_per_second"] > 20_000, (
            kind, measured)
    for kind, measured in report["missheavy"]["configs"].items():
        assert measured["accesses_per_second"] > 4_000, (
            kind, measured)

    benchmark.pedantic(
        lambda: build_system(configs["baseline"]).run(
            workload(WORKLOAD, CPUS)),
        rounds=1, iterations=1)


# -- regression-gate CLI (python bench_perf_engine.py --check) ----------

def _fresh_points(scale: float, repeats: int) -> dict:
    """Re-measure the throughput points at ``scale``.

    Returns ``{"configs": {...}, "missheavy": {"configs": {...}}}``
    shaped like the committed report so the comparison walks every
    section with one loop.
    """
    global REPEATS
    previous_repeats = REPEATS
    REPEATS = repeats
    try:
        hit_workload = generate(WORKLOAD, CPUS, scale=scale,
                                seed=BENCH_SEED)
        miss_workload = generate(MISSHEAVY_WORKLOAD, CPUS, scale=scale,
                                 seed=BENCH_SEED)
        configs = hitheavy_configs()
        fresh = {"configs": {}, "missheavy": {"configs": {}}}
        for kind, config in configs.items():
            fresh["configs"][kind] = measure(config, hit_workload)
        for kind, config in missheavy_configs().items():
            fresh["missheavy"]["configs"][kind] = measure(
                config, miss_workload)
        return fresh
    finally:
        REPEATS = previous_repeats
        # Drop the memoized full-scale workloads: the serving /
        # checkpoint gates that may re-measure next are wall-clock
        # ratios, and ~100 MB of retained trace columns visibly taxes
        # their timed regions.
        from repro.workloads.registry import clear_memo
        clear_memo()


def _compare(committed: dict, fresh: dict, threshold_pct: float):
    """Yield one (label, committed, fresh, delta_pct, ok) per config."""
    sections = [("", committed.get("configs", {}),
                 fresh.get("configs", {})),
                ("missheavy/",
                 committed.get("missheavy", {}).get("configs", {}),
                 fresh.get("missheavy", {}).get("configs", {}))]
    for prefix, old_configs, new_configs in sections:
        for kind, old in old_configs.items():
            new = new_configs.get(kind)
            if new is None:
                continue
            old_rate = old["accesses_per_second"]
            new_rate = new["accesses_per_second"]
            delta_pct = (new_rate / old_rate - 1) * 100
            ok = new_rate >= old_rate * (1 - threshold_pct / 100)
            yield prefix + kind, old_rate, new_rate, delta_pct, ok


def _ratio_gates(committed: dict, scale: float) -> int:
    """Re-measure the wall-clock ratio gates against their floors.

    Invoked by ``--check`` in a fresh subprocess (``--gates-only``)
    so the measured ratios aren't taxed by the heap the throughput
    sweep grows; returns the number of failed gates.
    """
    failures = []
    if "serving" in committed:
        serving = measure_serving(
            committed["serving"].get("scale", scale * 0.2))
        ok = serving["warm_speedup"] >= SERVING_MIN_SPEEDUP
        print(f"serving warm/cold speedup: "
              f"{serving['warm_speedup']:.2f}x "
              f"(committed {committed['serving']['warm_speedup']:.2f}x,"
              f" floor {SERVING_MIN_SPEEDUP:g}x)"
              f"{'' if ok else '  << REGRESSION'}")
        if not ok:
            failures.append("serving/warm_speedup")

    if "checkpointing" in committed:
        chain = measure_checkpointing()
        ok = chain["chain_speedup"] >= CHECKPOINT_MIN_SPEEDUP
        print(f"checkpoint chain speedup: "
              f"{chain['chain_speedup']:.2f}x "
              f"(committed "
              f"{committed['checkpointing']['chain_speedup']:.2f}x,"
              f" floor {CHECKPOINT_MIN_SPEEDUP:g}x)"
              f"{'' if ok else '  << REGRESSION'}")
        if not ok:
            failures.append("checkpointing/chain_speedup")

    if "fault_campaign" in committed:
        campaign = measure_fault_campaign()
        ok = campaign["fork_speedup"] >= CAMPAIGN_MIN_SPEEDUP
        print(f"campaign fork speedup: "
              f"{campaign['fork_speedup']:.2f}x "
              f"(committed "
              f"{committed['fault_campaign']['fork_speedup']:.2f}x,"
              f" floor {CAMPAIGN_MIN_SPEEDUP:g}x)"
              f"{'' if ok else '  << REGRESSION'}")
        if not ok:
            failures.append("fault_campaign/fork_speedup")
    return len(failures)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Engine-throughput regression gate: fresh run vs "
                    "the committed BENCH_engine.json.")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed report and "
                             "exit non-zero on regression")
    parser.add_argument("--baseline",
                        default=str(pathlib.Path(__file__).parent.parent
                                    / "BENCH_engine.json"),
                        help="committed report to compare against")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="max tolerated slowdown, percent "
                             "(default 25)")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="best-of-N repeats per point")
    parser.add_argument("--gates-only", action="store_true",
                        help="re-measure only the wall-clock ratio "
                             "gates (serving/checkpointing/campaign); "
                             "used internally by --check, which runs "
                             "them in a fresh subprocess")
    args = parser.parse_args(argv)

    committed_path = pathlib.Path(args.baseline)
    committed = json.loads(committed_path.read_text())
    scale = committed.get("scale", BENCH_SCALE)
    failures = []

    if args.gates_only:
        return _ratio_gates(committed, scale)

    fresh = _fresh_points(scale, args.repeats)

    width = max(len("config"), *(len(label) for label, *_ in
                                 _compare(committed, fresh, 0)))
    print(f"{'config':<{width}}  {'committed':>10}  {'fresh':>10}  "
          f"{'delta':>8}")
    for label, old_rate, new_rate, delta_pct, ok in _compare(
            committed, fresh, args.threshold):
        flag = "" if ok else "  << REGRESSION"
        print(f"{label:<{width}}  {old_rate:>10,}  {new_rate:>10,}  "
              f"{delta_pct:>+7.1f}%{flag}")
        if not ok:
            failures.append(label)

    # Absolute gates travel with the committed report.
    recording = committed.get("recording")
    if recording is not None:
        pct = recording["overhead_when_disabled_percent"]
        ok = pct <= 2.0
        print(f"recording disabled overhead (committed): "
              f"{pct:+.2f}% (budget 2%)"
              f"{'' if ok else '  << REGRESSION'}")
        if not ok:
            failures.append("recording/overhead_when_disabled")

    if args.check:
        # The wall-clock *ratio* gates (serving, checkpointing, fault
        # campaign) re-measure in a fresh subprocess: each compares
        # two timed legs against an absolute floor, and the heap this
        # process grew running the full throughput sweep taxes the
        # legs unevenly enough to flip a ~10%-margin ratio (and
        # symmetrically, running them first in-process slows the
        # sweep's absolute points past the 25% threshold).
        import subprocess
        import sys
        code = subprocess.run(
            [sys.executable, __file__, "--gates-only",
             "--baseline", str(committed_path)]).returncode
        if code:
            failures.append(
                "ratio gates (serving/checkpointing/campaign)")

    if not args.check:
        return 0
    if failures:
        print(f"FAIL: {', '.join(failures)} regressed vs "
              f"{committed_path.name}")
        return 1
    print(f"OK: all configs within {args.threshold:g}% of "
          f"{committed_path.name}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
