"""Engine throughput and the engine's regression gates.

Not a paper figure: this bench tracks the *simulator's* speed and the
cost of its optional layers. :func:`measure_report` is its one
measuring path; :data:`GATES` is its one table of gates (report path,
operator, bound). Both entry points run the first and evaluate the
second:

- ``pytest benchmarks/bench_perf_engine.py`` measures at
  ``BENCH_SCALE``, fails on any failed gate and otherwise rewrites
  ``BENCH_engine.json`` at the repo root;
- ``python benchmarks/bench_perf_engine.py --check`` measures at the
  committed report's scale, prints every gate and exits non-zero on
  any failure (the CI "Engine throughput regression gate").

What is measured, and how each gate reads it:

- **Throughput** (``configs``, ``missheavy``): accesses/s of the three
  machine flavours on a hit-heavy point (fft 4P, 1 MB L2, >90% hits —
  the merged fast path) and a miss-heavy one (ocean 4P, 64 KB L2,
  ~73% hits — the slow path of DESIGN.md §6c). Each rate is the
  median over ``REPEATS`` rotating rounds. Gated within
  ``--threshold`` percent (default 25) of the committed report, and
  above loose absolute floors.
- **Disabled hooks** (``guard_opcodes``): with no tracer, recorder or
  fault injector attached, the hooks cost only their guards. Their
  share of executed opcodes is counted exactly, not timed, by
  ``tools/guard_opcodes.py`` on the miss-heavy point at the fixed
  ``GUARD_SCALE``: the observer guards (with the bus observer loop)
  on senss bound the observability and recording budgets, the
  fault-hook guards on integrated bound the fault-hook budget, 2%
  each.
- **Observing** (``observability``, ``recording``, ``fault_hooks``):
  the miss-heavy senss machine untraced vs with a full tracer and a
  senss+memprotect-filtered one, untraced vs a full recorder, and the
  integrated machine without vs with a never-firing fault injector.
  Simulated cycles must be identical in every mode, filtering must
  cost no more than full tracing, and the event counts must make
  sense.
- **Ratios** (``serving``, ``checkpointing``, ``fault_campaign``): a
  warm ``repro.serve`` server vs cold per-client sweeps (≥3.0x), a
  prefix-sharing checkpoint chain vs cold per-point runs (≥1.5x), a
  forked fault campaign vs cold cells (≥2.0x). Each leg's results
  must equal its cold leg's. These run in a fresh subprocess so the
  heap the throughput rounds grew cannot tax their legs.

Every wall-clock comparison goes through :func:`paired`: the legs run
in rotating order (alternating when there are two), one of each per
round, and a ratio is reported as the median of its per-round ratios
with the number of rounds the faster leg won. ``REPRO_BENCH_REPEATS``
sets the number of rounds (default 5).

Seed throughputs were measured on the pre-fastpath engine (linear-scan
scheduler, per-access NamedTuples, StatsRegistry on the hot path) at
scale 0.5 on the reference machine; ``speedup_vs_seed`` is only
meaningful on comparable hardware.
"""

import asyncio
import gc
import json
import math
import operator
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace

from conftest import (BENCH_SCALE, BENCH_SEED, baseline_config,
                      senss_config)

from repro.config import KB, SystemConfig
from repro.sim.sweep import build_system
from repro.workloads.registry import generate

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tools"))
import guard_opcodes  # noqa: E402

REPORT = pathlib.Path(__file__).parents[1] / "BENCH_engine.json"

CPUS = 4
L2_MB = 1
WORKLOAD = "fft"
KINDS = ("baseline", "senss", "integrated")
#: rounds of every paired measurement (and so pairs of every ratio).
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))

MISSHEAVY_WORKLOAD = "ocean"
MISSHEAVY_L2_KB = 64

#: accesses/second of the pre-fastpath seed engine at scale 0.5 on the
#: reference machine (best of 3); denominators for the speedup column.
SEED_THROUGHPUT = {
    "baseline": 191234,
    "senss": 176465,
    "integrated": 189117,
}
HITHEAVY_MIN_RATE = 20_000
MISSHEAVY_MIN_RATE = 4_000

#: the most a disabled hook family may add, percent of all opcodes.
DISABLED_BUDGET_PERCENT = 2.0
#: miss-heavy scale the guard opcodes are counted at. The counts are
#: exact and the shares move little with scale (0.755%/0.802% at 0.5
#: vs 0.745%/0.786% here), but the per-opcode tracer runs ~40x slower
#: than the simulator.
GUARD_SCALE = 0.05
FILTERED_CATEGORIES = ("memprotect", "senss")

#: the warm server must beat cold per-client sweeps by at least this
#: factor on repeated submissions.
SERVING_MIN_SPEEDUP = 3.0
SERVING_SUBMISSIONS = 3
SERVING_SEEDS = 4
SERVING_CPUS = 2
SERVING_WORKERS = 2

#: a prefix-sharing checkpoint chain over a scale axis must beat cold
#: per-point runs by at least this factor. The measured margin is
#: ~2.3x (1.7-2.7x over repeated runs on a 2-vCPU shared host); the
#: floor keeps the same ~2/3 noise allowance the original 2x-of-3x
#: floor had.
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
#: by at least this factor.
CAMPAIGN_MIN_SPEEDUP = 2.0
CAMPAIGN_SCALE = 0.2
#: deep enough that the shared clean prefix dominates each cell, and
#: below every bus-fault cell's event count at CAMPAIGN_SCALE so all
#: cells actually fork (triggers past the event space run clean).
CAMPAIGN_TRIGGER = 70

#: a bound that reads the committed report's value less --threshold %.
COMMITTED = "committed"
#: (report path, operator, bound): a string bound other than
#: COMMITTED names another path of the same report.
GATES = (
    *((f"{section}.{kind}.accesses_per_second", ">=", COMMITTED)
      for section in ("configs", "missheavy.configs") for kind in KINDS),
    *((f"configs.{kind}.accesses_per_second", ">", HITHEAVY_MIN_RATE)
      for kind in KINDS),
    *((f"missheavy.configs.{kind}.accesses_per_second", ">",
       MISSHEAVY_MIN_RATE) for kind in KINDS),
    ("observability.disabled_guard_share_percent", "<=",
     DISABLED_BUDGET_PERCENT),
    ("recording.disabled_guard_share_percent", "<=",
     DISABLED_BUDGET_PERCENT),
    ("fault_hooks.disabled_guard_share_percent", "<=",
     DISABLED_BUDGET_PERCENT),
    ("observability.cycles_identical", "==", True),
    ("recording.cycles_identical", "==", True),
    ("fault_hooks.cycles_identical", "==", True),
    ("observability.full_over_filtered.median", ">=", 1.0),
    ("observability.filtered.events_recorded", "<",
     "observability.on.events_recorded"),
    ("recording.on.events_recorded", ">", 0),
    ("serving.warm_speedup.median", ">=", SERVING_MIN_SPEEDUP),
    ("serving.served_equals_direct", "==", True),
    ("checkpointing.chain_speedup.median", ">=", CHECKPOINT_MIN_SPEEDUP),
    ("checkpointing.forked_equals_cold", "==", True),
    ("fault_campaign.fork_speedup.median", ">=", CAMPAIGN_MIN_SPEEDUP),
    ("fault_campaign.forked_cells", "==", "fault_campaign.cells"),
    ("fault_campaign.forked_equals_cold", "==", True),
)
OPERATORS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
             "<": operator.lt, "==": operator.eq}


# -- the one timing helper -----------------------------------------------

def timed(fn):
    """``(seconds, fn())``, after collecting the previous leg's garbage
    so it is not charged to this one."""
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def paired(legs: dict, rounds: int = REPEATS):
    """Run each leg once per round, rotating the order every round.

    ``legs`` maps a name to a callable returning ``(seconds, value)``
    (its setup stays outside the seconds). Returns ``{name: [seconds
    per round]}`` and ``{name: value of its last round}``. Drift inside
    the process (allocator, caches, host load) is monotonic, so a fixed
    order would tax whichever leg always runs later.
    """
    names = list(legs)
    seconds = {name: [] for name in names}
    values = {}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            elapsed, values[name] = legs[name]()
            seconds[name].append(elapsed)
    return seconds, values


def ratios(seconds: dict, slow: str, fast: str) -> list:
    return [s / f for s, f in zip(seconds[slow], seconds[fast])]


def ratio(seconds: dict, slow: str, fast: str) -> dict:
    """Median of the per-round ``slow/fast`` ratios and the rounds in
    which ``fast`` won."""
    pairs = ratios(seconds, slow, fast)
    return {"median": statistics.median(pairs),
            "wins": sum(r > 1 for r in pairs), "pairs": len(pairs)}


def overhead_percent(seconds: dict, leg: str, reference: str) -> float:
    """Median per-round slowdown of ``leg`` over ``reference``."""
    return round((statistics.median(ratios(seconds, leg, reference))
                  - 1) * 100, 2)


def rate(seconds: list, count: int, unit: str) -> dict:
    median = statistics.median(seconds)
    return {"seconds": round(median, 4), unit: round(count / median, 2)}


def run_leg(config: SystemConfig, workload, attach=None):
    """A paired leg: ``workload`` on a fresh machine (built, and given
    ``attach(machine)``, outside the timed region). Its value is
    ``(cycles, events recorded or None)``; the attached log is dropped
    before the next leg runs."""
    def leg():
        system = build_system(config)
        probe = attach(system) if attach is not None else None
        elapsed, result = timed(lambda: system.run(workload))
        log = getattr(probe, "log", None)
        return elapsed, (result.cycles,
                         None if log is None else log.total_recorded)
    return leg


def access_rates(seconds: dict, values: dict, accesses: int) -> dict:
    """Per-leg accesses/s entries of a paired simulation run."""
    entries = {}
    for name, leg_seconds in seconds.items():
        cycles, events = values[name]
        entry = {"accesses": accesses,
                 **rate(leg_seconds, accesses, "accesses_per_second"),
                 "cycles": cycles}
        entry["accesses_per_second"] = round(entry["accesses_per_second"])
        if events is not None:
            entry["events_recorded"] = events
        entries[name] = entry
    return entries


# -- sections ------------------------------------------------------------

def integrated_config() -> SystemConfig:
    return senss_config(CPUS, L2_MB).with_memprotect(
        encryption_enabled=True, integrity_enabled=True)


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


def measure_throughput(configs: dict, workload) -> dict:
    seconds, values = paired({kind: run_leg(config, workload)
                              for kind, config in configs.items()})
    return access_rates(seconds, values, workload.total_accesses)


def measure_guards() -> dict:
    """Exact guard-opcode counts of the disabled hooks (no tracer,
    recorder or injector attached) on the miss-heavy senss and
    integrated machines at ``GUARD_SCALE``."""
    configs = missheavy_configs()
    guards = guard_opcodes.guard_lines()
    workload = generate(MISSHEAVY_WORKLOAD, CPUS, scale=GUARD_SCALE,
                        seed=BENCH_SEED)
    return {"workload": MISSHEAVY_WORKLOAD, "num_cpus": CPUS,
            "l2_kb": MISSHEAVY_L2_KB, "scale": GUARD_SCALE,
            **{kind: guard_opcodes.count_run(configs[kind], workload,
                                             guards)
               for kind in ("senss", "integrated")}}


def guard_share(guards: dict, kind: str, *families: str) -> float:
    return round(guard_opcodes.share_percent(guards[kind], *families), 3)


def measure_observing(workload, scale: float, guards: dict) -> dict:
    """The observability, fault-hook and recording sections."""
    from repro.faults import FaultInjector, FaultKind, FaultPlan, \
        FaultSpec
    from repro.obs import Recorder, Tracer

    configs = missheavy_configs()
    accesses = workload.total_accesses
    point = {"workload": MISSHEAVY_WORKLOAD, "num_cpus": CPUS,
             "l2_kb": MISSHEAVY_L2_KB, "scale": scale}
    observer_share = guard_share(guards, "senss", "observer",
                                 "bus_observers")

    def section(config, legs, overhead_key, disabled_share):
        seconds, values = paired(legs)
        entries = access_rates(seconds, values, accesses)
        cycles = {entry["cycles"] for entry in entries.values()}
        return seconds, {
            **point, "config": config, **entries,
            overhead_key: overhead_percent(seconds, "on", "off"),
            "disabled_guard_share_percent": disabled_share,
            "cycles_identical": len(cycles) == 1}

    # Tracing never changes simulated time — filtered or not — and a
    # senss+memprotect-only tracer skips the bus observer and the
    # per-miss spans, so it must cost no more than full tracing.
    senss = configs["senss"]
    seconds, observability = section("senss", {
        "off": run_leg(senss, workload),
        "on": run_leg(senss, workload,
                      lambda system: Tracer(capacity=1 << 20)
                      .attach(system)),
        "filtered": run_leg(senss, workload,
                            lambda system: Tracer(
                                capacity=1 << 20,
                                categories=frozenset(FILTERED_CATEGORIES))
                            .attach(system)),
    }, "tracing_overhead_percent", observer_share)
    observability["filtered"]["categories"] = list(FILTERED_CATEGORIES)
    observability["filtered_overhead_percent"] = overhead_percent(
        seconds, "filtered", "off")
    observability["full_over_filtered"] = ratio(seconds, "on",
                                                "filtered")

    # An injector with one never-firing spec per hook family runs the
    # bus, pad and verify hook sites and must change nothing.
    never = 1 << 40
    idle_plan = FaultPlan(specs=(
        FaultSpec(FaultKind.DROP, never),
        FaultSpec(FaultKind.PAD_CORRUPT, never, cpu=0),
        FaultSpec(FaultKind.MERKLE_FLIP, never)))
    integrated = configs["integrated"]
    _, fault_hooks = section("integrated", {
        "off": run_leg(integrated, workload),
        "on": run_leg(integrated, workload,
                      lambda system: FaultInjector(idle_plan)
                      .attach(system)),
    }, "armed_overhead_percent",
        guard_share(guards, "integrated", "fault_hook"))

    # A Recorder is a Tracer that keeps every event plus stats
    # snapshots; not recording costs the same observer guards.
    _, recording = section("senss", {
        "off": run_leg(senss, workload),
        "on": run_leg(senss, workload,
                      lambda system: Recorder().attach(system)),
    }, "recording_overhead_percent", observer_share)
    return {"observability": observability, "fault_hooks": fault_hooks,
            "recording": recording}


def measure_serving(scale: float) -> dict:
    """Warm-server vs cold-client throughput on repeated sweeps.

    **Cold**: each of ``SERVING_SUBMISSIONS`` clients runs the same
    sweep through ``run_sweep`` with a fresh worker pool and no cache —
    the pre-service topology, paying interpreter spawn + imports +
    warmup per client. **Warm**: a ``repro.serve`` server, booted with
    an empty result cache outside the timed region (its warm pool
    surviving across jobs is the point), takes the same submissions
    over HTTP from two alternating tenants; the first executes once on
    the warm pool, the rest are served from the shared cache/dedup
    path. Every warm leg boots its own server.
    """
    from repro.serve.client import ServeClient
    from repro.serve.http import ServeHTTP
    from repro.serve.scheduler import Scheduler
    from repro.sim.sweep import ResultCache, SweepPoint, run_sweep

    config = baseline_config(SERVING_CPUS, L2_MB)
    points = [SweepPoint(WORKLOAD, config, scale=scale, seed=seed)
              for seed in range(SERVING_SEEDS)]
    total_points = len(points) * SERVING_SUBMISSIONS

    def cold():
        def clients():
            for _ in range(SERVING_SUBMISSIONS):
                results = run_sweep(points, cache=None, parallel=True,
                                    max_workers=SERVING_WORKERS)
            return results
        return timed(clients)

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def on_loop(coroutine, timeout):
        return asyncio.run_coroutine_threadsafe(
            coroutine, loop).result(timeout=timeout)

    async def boot(cache_dir):
        # Journal + point deadline on: the resilience layer
        # (docs/resilience.md) must be free when nothing fails, so the
        # gated speedup is measured with it enabled.
        scheduler = Scheduler(cache=ResultCache(cache_dir),
                              max_workers=SERVING_WORKERS,
                              journal=pathlib.Path(cache_dir) / "state",
                              point_timeout=300.0)
        await scheduler.start()
        return await ServeHTTP(scheduler, port=0).start()

    def warm():
        with tempfile.TemporaryDirectory() as cache_dir:
            server = on_loop(boot(cache_dir), 120)
            client = ServeClient(port=server.port)

            def submissions():
                for index in range(SERVING_SUBMISSIONS):
                    tenant = "alice" if index % 2 == 0 else "bob"
                    job = client.submit(points, tenant=tenant)
                    client.wait(job["id"])
                    results = client.results(job["id"])
                return results
            elapsed, results = timed(submissions)
            on_loop(server.drain(), 60)
        return elapsed, results

    try:
        seconds, results = paired({"cold": cold, "warm": warm})
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
    return {
        "workload": WORKLOAD, "num_cpus": SERVING_CPUS,
        "scale": scale, "points_per_submission": len(points),
        "submissions": SERVING_SUBMISSIONS,
        "workers": SERVING_WORKERS,
        "cold": rate(seconds["cold"], total_points, "points_per_second"),
        "warm": rate(seconds["warm"], total_points, "points_per_second"),
        "warm_speedup": ratio(seconds, "cold", "warm"),
        # Serving is only a win if it serves the same simulation.
        "served_equals_direct": results["warm"] == results["cold"],
    }


def checkpoint_config() -> SystemConfig:
    config = senss_config(CHECKPOINT_CPUS, L2_MB).with_l2_size(
        CHECKPOINT_L2_KB * KB)
    return replace(config, l1=replace(config.l1,
                                      size_bytes=CHECKPOINT_L1_KB * KB))


def measure_checkpointing() -> dict:
    """Cold per-point scale sweep vs the prefix-sharing chain.

    The scale axis is the shape ``run_sweep(checkpoint_dir=...)``
    chains: every point is the same trace prefix, so point *k* forks
    point *k-1*'s end snapshot and simulates only its tail. **Cold**
    runs every point from reset; **chain** runs ``run_chain`` against
    a fresh store (the first point pays full price and seeds the
    chain).
    """
    from repro.sim.checkpoint import CheckpointStore, run_chain
    from repro.sim.sweep import SweepPoint, run_point

    points = [SweepPoint(CHECKPOINT_WORKLOAD, checkpoint_config(),
                         scale=scale, seed=BENCH_SEED)
              for scale in CHECKPOINT_SCALES]
    # Grow the points' one trace family to the largest scale outside
    # both timed legs — trace synthesis cost is identical either way
    # and would drown the executor difference at these point sizes;
    # each leg then only copies its prefixes.
    generate(CHECKPOINT_WORKLOAD, CHECKPOINT_CPUS,
             scale=max(CHECKPOINT_SCALES), seed=BENCH_SEED)

    def chain():
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root)
            return timed(lambda: run_chain(points, store))

    seconds, results = paired({
        "cold": lambda: timed(lambda: [run_point(point)
                                       for point in points]),
        "chain": chain})
    forked = [(result, error) for result, _, error in results["chain"]]
    return {
        "workload": CHECKPOINT_WORKLOAD, "num_cpus": CHECKPOINT_CPUS,
        "l1_kb": CHECKPOINT_L1_KB, "l2_kb": CHECKPOINT_L2_KB,
        "scales": list(CHECKPOINT_SCALES),
        "cold": rate(seconds["cold"], len(points), "points_per_second"),
        "chain": rate(seconds["chain"], len(points),
                      "points_per_second"),
        "chain_speedup": ratio(seconds, "cold", "chain"),
        # Prefix sharing is only a win if the forked runs ARE the runs.
        "forked_equals_cold": forked == [(result, None)
                                         for result in results["cold"]],
    }


def measure_fault_campaign() -> dict:
    """Fault campaign with forked clean prefixes vs cold per cell.

    Every (kind, policy) cell of a campaign simulates the same clean
    prefix up to its trigger; with ``fork=True`` that prefix runs once
    and each cell restores the deepest snapshot preceding its trigger.
    Reports must match cell for cell modulo the fork bookkeeping keys.
    Both legs run their cells in this process
    (``REPRO_SWEEP_PARALLEL=0``): the ratio measures forking against
    cold cells, not the worker pool both legs would share.
    """
    from unittest import mock

    from repro.faults.campaign import run_campaign
    from repro.faults.plan import FaultKind
    from repro.faults.recovery import POLICIES

    kwargs = dict(kinds=FaultKind.BUS, policies=POLICIES,
                  workload=CHECKPOINT_WORKLOAD, cpus=CHECKPOINT_CPUS,
                  scale=CAMPAIGN_SCALE, seed=BENCH_SEED,
                  trigger=CAMPAIGN_TRIGGER)
    with mock.patch.dict(os.environ, {"REPRO_SWEEP_PARALLEL": "0"}):
        seconds, reports = paired({
            "cold": lambda: timed(lambda: run_campaign(fork=False,
                                                       **kwargs)),
            "fork": lambda: timed(lambda: run_campaign(fork=True,
                                                       **kwargs))})

    def stripped(report: dict) -> list:
        return [{key: value for key, value in entry.items()
                 if key != "forked"} for entry in report["entries"]]

    cells = len(reports["fork"]["entries"])
    return {
        "workload": CHECKPOINT_WORKLOAD, "num_cpus": CHECKPOINT_CPUS,
        "scale": CAMPAIGN_SCALE, "trigger": CAMPAIGN_TRIGGER,
        "kinds": list(FaultKind.BUS), "policies": list(POLICIES),
        "cells": cells,
        "forked_cells": reports["fork"].get("forked_cells", 0),
        "cold": rate(seconds["cold"], cells, "cells_per_second"),
        "fork": rate(seconds["fork"], cells, "cells_per_second"),
        "fork_speedup": ratio(seconds, "cold", "fork"),
        # Forking must not change a single cell's verdict.
        "forked_equals_cold": (stripped(reports["cold"])
                               == stripped(reports["fork"])),
    }


def measure_ratio_sections(scale: float) -> dict:
    return {"serving": measure_serving(scale * 0.2),
            "checkpointing": measure_checkpointing(),
            "fault_campaign": measure_fault_campaign()}


def measure_report(scale: float) -> dict:
    """Measure every section at ``scale``: the one measuring path."""
    hit = generate(WORKLOAD, CPUS, scale=scale, seed=BENCH_SEED)
    miss = generate(MISSHEAVY_WORKLOAD, CPUS, scale=scale,
                    seed=BENCH_SEED)
    configs = measure_throughput(hitheavy_configs(), hit)
    for kind, entry in configs.items():
        entry["seed_accesses_per_second"] = SEED_THROUGHPUT[kind]
        entry["speedup_vs_seed"] = round(
            entry["accesses_per_second"] / SEED_THROUGHPUT[kind], 2)
    report = {"workload": WORKLOAD, "num_cpus": CPUS, "l2_mb": L2_MB,
              "scale": scale, "repeats": REPEATS, "configs": configs,
              "missheavy": {"workload": MISSHEAVY_WORKLOAD,
                            "num_cpus": CPUS,
                            "l2_kb": MISSHEAVY_L2_KB, "scale": scale,
                            "configs": measure_throughput(
                                missheavy_configs(), miss)}}
    report["guard_opcodes"] = measure_guards()
    report.update(measure_observing(miss, scale, report["guard_opcodes"]))
    # The ratio legs run in a fresh interpreter: the heap this one grew
    # taxes two legs unevenly enough to flip a ~10%-margin ratio.
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "ratios.json"
        subprocess.run([sys.executable, __file__, "--ratio-sections",
                        str(scale), str(out)], check=True)
        report.update(json.loads(out.read_text()))
    return report


# -- gates ---------------------------------------------------------------

def lookup(report: dict, path: str):
    value = report
    for key in path.split("."):
        value = value[key]
    return value


def evaluate(report: dict, committed: dict, threshold: float = 25.0):
    """Yield ``(path, value, op, bound, ok)`` for every gate.

    COMMITTED bounds are skipped when the committed report was measured
    at another scale (``REPRO_BENCH_SCALE``).
    """
    for path, op, bound in GATES:
        if bound == COMMITTED:
            if committed["scale"] != report["scale"]:
                continue
            bound = math.ceil(lookup(committed, path)
                              * (1 - threshold / 100))
        elif isinstance(bound, str):
            bound = lookup(report, bound)
        value = lookup(report, path)
        yield path, value, op, bound, OPERATORS[op](value, bound)


def _number(value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def gate_table(report: dict, committed: dict, threshold: float = 25.0):
    """The printed gate table and the paths of the failed gates."""
    from repro.analysis.report import format_table

    rows, failures = [], []
    for path, value, op, bound, ok in evaluate(report, committed,
                                               threshold):
        shown = _number(value)
        if path.endswith(".median"):
            pairs = lookup(report, path[:-len(".median")])
            shown = (f"{value:.3f}x ({pairs['wins']}/{pairs['pairs']} "
                     "pairs won)")
        rows.append([path, shown, f"{op} {_number(bound)}",
                     "ok" if ok else "FAIL"])
        if not ok:
            failures.append(path)
    title = (f"Engine gates — scale {report['scale']:g}, "
             f"{report['repeats']} rounds per paired measurement")
    return format_table(title, ["gate", "measured", "bound", ""],
                        rows), failures


def test_engine_throughput(benchmark, emit):
    committed = json.loads(REPORT.read_text())
    report = measure_report(BENCH_SCALE)
    table, failures = gate_table(report, committed)
    emit(table)
    # A failed run must not replace the report it failed against.
    assert not failures, failures
    REPORT.write_text(json.dumps(report, indent=2) + "\n")

    benchmark.pedantic(
        lambda: build_system(hitheavy_configs()["baseline"]).run(
            generate(WORKLOAD, CPUS, scale=BENCH_SCALE, seed=BENCH_SEED)),
        rounds=1, iterations=1)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Engine regression gates: measure every section and "
                    "evaluate every gate against the committed "
                    "BENCH_engine.json.")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any gate fails")
    parser.add_argument("--baseline", default=str(REPORT),
                        help="committed report to compare against")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="max tolerated throughput slowdown vs the "
                             "committed report, percent (default 25)")
    parser.add_argument("--ratio-sections", nargs=2,
                        metavar=("SCALE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.ratio_sections:
        scale, out = args.ratio_sections
        sections = measure_ratio_sections(float(scale))
        pathlib.Path(out).write_text(json.dumps(sections))
        return 0

    committed_path = pathlib.Path(args.baseline)
    committed = json.loads(committed_path.read_text())
    report = measure_report(committed["scale"])
    table, failures = gate_table(report, committed, args.threshold)
    print(table)
    if not args.check:
        return 0
    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return 1
    print(f"OK: every gate passed against {committed_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
