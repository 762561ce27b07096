"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``       simulate one workload on baseline + SENSS machines and
              report slowdown / traffic increase.
``sweep``     sweep the authentication interval (Figure 9 style).
``trace``     record one secured run as Chrome/Perfetto trace-event
              JSON (schema-validated; load in ui.perfetto.dev).
``report``    baseline-vs-secured comparison with latency histograms
              and wall-clock phases, as a mergeable JSON report.
``profile``   measure engine throughput (accesses/s) per config kind,
              optionally with a cProfile hot-function table.
``overhead``  print the section-7.1 hardware cost table.
``attacks``   run the Type 1/2/3 attack detection matrix.
``faults``    run the timing-layer fault-injection campaign (kind x
              recovery-policy detection matrix; see
              docs/fault_injection.md).
``record``    persist one run as a deterministic recording file
              (events, stats snapshots, config fingerprint; see
              docs/record_replay.md).
``replay``    re-run a recording with exactly one perturbed knob and
              write the resulting recording.
``diff``      structured divergence report between two recordings:
              first-divergence event, per-phase and per-counter
              deltas, cycle-skew histogram. Exits 0 when identical,
              1 when diverged (like diff(1)).
``workloads`` list available workload generators.
``serve``     run the sweep service: async HTTP server with a
              per-tenant fair queue, warm worker pool and shared
              result cache (docs/serving.md).
``submit``    submit a sweep job to a running server and optionally
              follow its NDJSON progress stream.
``jobs``      list a running server's jobs, with per-point failure
              reasons and quarantine status.
``chaos``     deterministic chaos harness: inject seeded faults
              (worker kill, point hang, cache corruption, server
              restart, client drop) into a live serve subprocess and
              assert results stay bit-identical to a clean run
              (docs/resilience.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .analysis.overhead import compute_overhead
from .analysis.report import format_table
from .config import e6000_config
from .core.senss import build_secure_system
from .faults.plan import FaultKind
from .smp.metrics import slowdown_percent, traffic_increase_percent
from .smp.system import SmpSystem
from .workloads.registry import SPLASH2_NAMES, generate


def _version_string() -> str:
    from .sim.sweep import ENGINE_VERSION
    store = _checkpoint_summary()
    return (f"repro {__version__} (engine {ENGINE_VERSION})"
            + (f" [checkpoints: {store}]" if store else ""))


def _checkpoint_summary() -> str:
    """'N snapshots, X MB' of the default checkpoint store, for
    --version and profile; '' when its directory does not exist
    (fresh checkout)."""
    from .sim.checkpoint import DEFAULT_CHECKPOINT_DIR, CheckpointStore
    if not DEFAULT_CHECKPOINT_DIR.is_dir():
        return ""
    stats = CheckpointStore(DEFAULT_CHECKPOINT_DIR).stats()
    return f"{stats['count']} snapshots, {stats['bytes'] / 1e6:.1f} MB"


def _add_machine_arguments(command, default_scale: float) -> None:
    """The workload/machine flags shared by run, trace and report."""
    command.add_argument("workload",
                         help=f"one of {SPLASH2_NAMES} or a .trace file "
                              "(see repro.workloads.tracefile)")
    command.add_argument("--cpus", type=int, default=4)
    command.add_argument("--l2-mb", type=int, default=1, choices=[1, 4])
    command.add_argument("--interval", type=int, default=100)
    command.add_argument("--masks", type=int, default=0,
                         help="mask count (0 = perfect supply)")
    command.add_argument("--scale", type=float, default=default_scale)
    command.add_argument("--seed", type=int, default=0)
    command.add_argument("--memprotect", action="store_true",
                         help="add OTP memory encryption + CHash "
                              "integrity")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SENSS (HPCA 2005) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=_version_string())
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate one workload")
    _add_machine_arguments(run, default_scale=0.5)

    trace = commands.add_parser(
        "trace", help="record one secured run as Perfetto JSON")
    _add_machine_arguments(trace, default_scale=0.1)
    trace.add_argument("--capacity", type=int, default=65536,
                       help="events kept (oldest events drop)")
    trace.add_argument("--trace-categories", default=None,
                       metavar="CATS",
                       help="comma-separated event categories to "
                            "record (bus,mem,senss,memprotect,run,"
                            "faults; default all). Filtered runs only "
                            "pay for what they record.")
    trace.add_argument("--out", default="trace.json",
                       help="output path ('-' for stdout)")

    report = commands.add_parser(
        "report", help="baseline-vs-secured run report")
    _add_machine_arguments(report, default_scale=0.2)
    report.add_argument("--json", dest="json_out", default=None,
                        metavar="PATH",
                        help="also write the mergeable JSON report")

    sweep = commands.add_parser("sweep",
                                help="authentication interval sweep")
    sweep.add_argument("workload",
                       help=f"one of {SPLASH2_NAMES} or a .trace file")
    sweep.add_argument("--cpus", type=int, default=4)
    sweep.add_argument("--scale", type=float, default=0.4)
    sweep.add_argument("--intervals", type=int, nargs="+",
                       default=[100, 32, 10, 1])

    profile = commands.add_parser(
        "profile", help="engine throughput profile (accesses/s)")
    profile.add_argument("workload", nargs="?", default="fft",
                         help=f"one of {SPLASH2_NAMES}")
    profile.add_argument("--cpus", type=int, default=4)
    profile.add_argument("--l2-mb", type=int, default=1, choices=[1, 4])
    profile.add_argument("--scale", type=float, default=0.5)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--repeats", type=int, default=3,
                         help="timing repeats (best is reported)")
    profile.add_argument("--configs", nargs="+",
                         default=["baseline", "senss", "integrated"],
                         choices=["baseline", "senss", "integrated"])
    profile.add_argument("--cprofile", action="store_true",
                         help="also print the hottest functions")
    profile.add_argument("--breakdown", action="store_true",
                         help="also run the integrated config once "
                              "with the memprotect hot paths "
                              "instrumented and print the wall-time "
                              "split (verify climb / leaf hashing / "
                              "pad generation / pad-cache coherence)")

    commands.add_parser("overhead",
                        help="section 7.1 hardware cost table")
    commands.add_parser("attacks", help="attack detection matrix")

    faults = commands.add_parser(
        "faults", help="timing-layer fault-injection campaign")
    faults.add_argument("--workload", default="ocean",
                        help=f"one of {SPLASH2_NAMES}")
    faults.add_argument("--cpus", type=int, default=4)
    faults.add_argument("--scale", type=float, default=0.05)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--interval", type=int, default=10,
                        help="authentication interval (short, so "
                             "detection latency is bounded tightly)")
    faults.add_argument("--kinds", nargs="+", default=None,
                        choices=list(FaultKind.ALL),
                        help="fault kinds to inject (default: all)")
    faults.add_argument("--policies", nargs="+",
                        default=["halt", "rekey-replay"],
                        choices=["halt", "rekey-replay", "quarantine"])
    faults.add_argument("--json", dest="json_out", default=None,
                        metavar="PATH",
                        help="also write the campaign report as JSON")
    faults.add_argument("--verify-identity", action="store_true",
                        help="also assert a never-triggering injector "
                             "leaves results bit-identical")
    faults.add_argument("--record-diff", action="store_true",
                        help="record each faulted run and diff it "
                             "against the clean run (adds a "
                             "divergence column / report field)")
    faults.add_argument("--no-fork", action="store_true",
                        help="disable checkpoint forking: simulate "
                             "every cell's clean prefix from cold "
                             "instead of restoring a shared snapshot "
                             "(docs/checkpointing.md)")
    faults.add_argument("--trigger", type=int, default=None,
                        metavar="N",
                        help="inject each fault at event index N "
                             "instead of the per-kind default; "
                             "deeper triggers make forking pay more")

    record = commands.add_parser(
        "record", help="record one run as a deterministic recording "
                       "(docs/record_replay.md)")
    _add_machine_arguments(record, default_scale=0.1)
    record.add_argument("--snapshot-every", type=int, default=1,
                        metavar="N",
                        help="stats snapshot every Nth auth "
                             "checkpoint (default every one)")
    record.add_argument("--out", default="run.rec.json",
                        help="recording output path")
    record.add_argument("--timings", action="store_true",
                        help="embed wall-clock phase timings "
                             "(excluded from the checksum, but "
                             "breaks byte-identity across repeats)")

    replay = commands.add_parser(
        "replay", help="re-run a recording with one perturbed knob")
    replay.add_argument("recording", help="recording file to replay")
    replay.add_argument("--perturb", default=None,
                        metavar="NAME=VALUE",
                        help="exactly one knob to change "
                             "(auth_interval, masks, "
                             "aes_latency, hash_latency, seed, scale, "
                             "fault=kind[:trigger]); omitted = pure "
                             "determinism check")
    replay.add_argument("--out", default=None, metavar="PATH",
                        help="replay recording output path (default "
                             "<recording>.replay.json)")
    replay.add_argument("--snapshot-every", type=int, default=None,
                        metavar="N",
                        help="override the source recording's "
                             "snapshot cadence")
    replay.add_argument("--diff", action="store_true",
                        help="also print the diff against the source "
                             "recording (exit 1 if diverged)")

    diff = commands.add_parser(
        "diff", help="structured diff of two recordings (exit 0 "
                     "identical, 1 diverged)")
    diff.add_argument("recording_a", help="reference recording")
    diff.add_argument("recording_b", help="recording to compare")
    diff.add_argument("--json", dest="json_out", default=None,
                      metavar="PATH",
                      help="also write the diff report as JSON "
                           "(mergeable via tools/collect_results.py "
                           "--diffs)")

    commands.add_parser("workloads", help="list workload generators")

    serve = commands.add_parser(
        "serve", help="run the sweep service (docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = ephemeral, printed)")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm worker-process count")
    serve.add_argument("--cache-dir", default=".benchmarks/cache",
                       metavar="PATH",
                       help="shared result cache directory")
    serve.add_argument("--cache-max-mb", type=float, default=None,
                       metavar="MB",
                       help="result-cache disk budget; least-"
                            "recently-used entries are evicted past "
                            "it (default: unbounded)")
    serve.add_argument("--checkpoint-dir", default=None,
                       metavar="PATH",
                       help="enable checkpoint/fork execution: warm "
                            "workers fork points from shared "
                            "simulation prefixes stored here, across "
                            "jobs and tenants (docs/checkpointing.md)")
    serve.add_argument("--max-queued", type=int, default=1024,
                       metavar="N",
                       help="per-tenant queued-point budget; a job "
                            "that would exceed it is rejected whole "
                            "with HTTP 429")
    serve.add_argument("--record-dir", default=None, metavar="PATH",
                       help="directory for job-requested recordings; "
                            "unset = jobs asking to record are "
                            "rejected (400)")
    serve.add_argument("--state-dir", default=None, metavar="PATH",
                       help="server state directory: enables the "
                            "durable job journal "
                            "(journal.jsonl WAL; docs/resilience.md)")
    serve.add_argument("--resume", action="store_true",
                       help="replay the journal on startup and "
                            "re-admit jobs that never finished "
                            "(needs --state-dir)")
    serve.add_argument("--point-timeout", type=float, default=None,
                       metavar="S",
                       help="per-point deadline in seconds; a point "
                            "past it is presumed hung, the worker "
                            "pool is respawned and the point retried")
    serve.add_argument("--retries", type=int, default=2, metavar="N",
                       help="per-point retry budget before the "
                            "failure is final (default 2)")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       metavar="S",
                       help="max seconds to wait for accepted jobs "
                            "on shutdown; unfinished work stays "
                            "journalled for --resume")

    submit = commands.add_parser(
        "submit", help="submit a sweep job to a running server")
    _add_machine_arguments(submit, default_scale=0.1)
    submit.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="submit N points with seeds "
                             "seed..seed+N-1")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--weight", type=int, default=1,
                        help="fair-share weight (>=1)")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8642)
    submit.add_argument("--follow", action="store_true",
                        help="stream NDJSON progress events until "
                             "the job finishes and print a result "
                             "table")
    submit.add_argument("--record", action="store_true",
                        help="ask the server to record each point "
                             "(needs a server started with "
                             "--record-dir); fetch recordings via "
                             "GET /v1/jobs/{id}/recordings/{index}")

    jobs = commands.add_parser(
        "jobs", help="list a running server's jobs with per-point "
                     "failure reasons and quarantine status")
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, default=8642)
    jobs.add_argument("--tenant", default=None)
    jobs.add_argument("--no-reasons", action="store_true",
                      help="skip fetching per-point failure reasons "
                           "for failed jobs")

    chaos = commands.add_parser(
        "chaos", help="seeded fault injection against a live serve "
                      "subprocess (docs/resilience.md)")
    chaos.add_argument("--workload", default="fft",
                       help="registry workload for the chaos sweep")
    chaos.add_argument("--cpus", type=int, default=2)
    chaos.add_argument("--scale", type=float, default=0.05)
    chaos.add_argument("--points", type=int, default=4, metavar="N",
                       help="sweep points (seeds 0..N-1)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="chaos plan seed: same seed, same faults "
                            "on the same points")
    chaos.add_argument("--faults", default=",".join(
        ("worker-kill", "point-hang", "cache-corrupt",
         "server-restart", "client-drop")),
        help="comma-separated fault kinds to inject")
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--point-timeout", type=float, default=5.0,
                       metavar="S",
                       help="server per-point deadline (the hang "
                            "fault must blow it)")
    chaos.add_argument("--record", action="store_true",
                       help="also run record jobs and assert "
                            "recording bytes are identical to a "
                            "clean run")
    chaos.add_argument("--dir", default=None, metavar="PATH",
                       help="scratch directory (default: a temp dir "
                            "wiped afterwards)")
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="also write the chaos report as JSON")
    return parser


def _machine_config(args):
    """The SystemConfig the shared machine flags describe."""
    config = e6000_config(num_processors=args.cpus, l2_mb=args.l2_mb,
                          auth_interval=args.interval)
    config = config.with_masks(args.masks or None)
    if args.memprotect:
        config = config.with_memprotect(encryption_enabled=True,
                                        integrity_enabled=True)
    return config


def _workload_inputs(args, config, seed: int = 0):
    """Load ``args.workload`` — a ``.trace`` file or a registry name —
    and widen ``config`` to a trace file's CPU count if it needs it."""
    if args.workload.endswith(".trace"):
        from .workloads.tracefile import load_workload
        workload = load_workload(args.workload)
        if workload.num_cpus > args.cpus:
            config = config.with_processors(workload.num_cpus)
    else:
        workload = generate(args.workload, args.cpus, scale=args.scale,
                            seed=seed)
    return config, workload


def _machine_inputs(args):
    """Resolve the (config, workload) pair the machine flags describe."""
    return _workload_inputs(args, _machine_config(args), seed=args.seed)


def _cmd_run(args) -> int:
    config, workload = _machine_inputs(args)
    baseline = SmpSystem(config.with_senss(False)).run(workload)
    secured = build_secure_system(config).run(workload)
    print(baseline.summary())
    print(secured.summary())
    print("slowdown         : "
          f"{slowdown_percent(baseline, secured):+.3f}%")
    print("traffic increase : "
          f"{traffic_increase_percent(baseline, secured):+.3f}%")
    return 0


def _cmd_trace(args) -> int:
    from .obs import Tracer, to_chrome_trace, validate_chrome_trace
    from .obs.tracer import parse_categories

    config, workload = _machine_inputs(args)
    system = build_secure_system(config)
    tracer = Tracer(capacity=args.capacity,
                    categories=parse_categories(
                        args.trace_categories)).attach(system)
    system.run(workload)
    payload = to_chrome_trace(tracer)
    # Self-check the export against the published schema before it
    # leaves the process — a trace that fails to load in Perfetto is
    # worse than no trace.
    event_count = validate_chrome_trace(payload)
    text = json.dumps(payload)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
    summary = tracer.summary()
    print(f"wrote {args.out}: {event_count} events "
          f"({summary['events_dropped']} dropped) over "
          f"{summary['cycles']:,} cycles", file=sys.stderr)
    by_kind = summary["by_kind"]
    if by_kind:
        rows = [[name, f"{count:,}"]
                for name, count in sorted(by_kind.items())]
        print(format_table("Recorded events", ["kind", "count"], rows),
              file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from .errors import TraceError
    from .obs import PhaseTimer, Tracer, build_report, format_report

    timer = PhaseTimer()
    with timer.phase("setup"):
        try:
            config, workload = _machine_inputs(args)
        except TraceError as exc:
            # A zero-event trace file (or any unloadable trace) must
            # exit with a message, not a traceback — a report over no
            # events has no baseline to divide by anyway.
            print(f"report: {exc}", file=sys.stderr)
            return 1
    if workload.total_accesses == 0:
        print(f"report: workload {workload.name!r} contains no "
              "memory accesses; nothing to report", file=sys.stderr)
        return 1
    with timer.phase("simulate.baseline"):
        baseline = SmpSystem(config.with_senss(False)).run(workload)
    with timer.phase("simulate.secured"):
        system = build_secure_system(config)
        tracer = Tracer(capacity=0).attach(system)  # metrics only
        secured = system.run(workload)
    report = build_report(baseline, secured,
                          workload=workload.name,
                          num_cpus=workload.num_cpus,
                          scale=args.scale,
                          histograms=tracer.histogram_summaries(),
                          timings=timer.as_dict())
    # Write the JSON before printing: a truncated stdout pipe
    # (BrokenPipeError, e.g. `... | head`) must not lose the report.
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}", file=sys.stderr)
    print(format_report(report))
    return 0


def _cmd_sweep(args) -> int:
    config, workload = _workload_inputs(
        args, e6000_config(num_processors=args.cpus, l2_mb=4))
    baseline = SmpSystem(config.with_senss(False)).run(workload)
    rows = []
    for interval in args.intervals:
        secured = build_secure_system(
            config.with_auth_interval(interval)).run(workload)
        rows.append([interval,
                     f"{slowdown_percent(baseline, secured):+.3f}",
                     f"{traffic_increase_percent(baseline, secured):+.3f}"])
    print(format_table(
        f"Authentication interval sweep — {args.workload}, "
        f"{args.cpus}P, 4M L2",
        ["interval", "slowdown %", "traffic %"], rows))
    return 0


def _profile_config(kind: str, args):
    config = e6000_config(num_processors=args.cpus, l2_mb=args.l2_mb,
                          senss_enabled=(kind != "baseline"))
    if kind == "integrated":
        config = config.with_memprotect(encryption_enabled=True,
                                        integrity_enabled=True)
    return config


class _ExclusiveTimer:
    """Wall-clock buckets with exclusive (self-time) accounting.

    Wrapped callables form a stack: a child's elapsed time is
    subtracted from its enclosing wrapped caller, so nested hot paths
    (a verify climb whose node fetch re-enters the pad machinery) are
    attributed exactly once.
    """

    def __init__(self):
        self.buckets = {}
        self._stack = []

    def wrap(self, owner, method_name: str, bucket: str) -> None:
        import time

        func = getattr(owner, method_name)
        buckets = self.buckets
        stack = self._stack
        perf = time.perf_counter
        buckets.setdefault(bucket, 0.0)

        def wrapper(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                buckets[bucket] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        setattr(owner, method_name, wrapper)


#: breakdown bucket -> the memprotect methods it aggregates
#: ("verify climb" also absorbs the coherent node fetches a climb or
#: node update triggers — the CHash cost the paper attributes to L2
#: pollution and bus contention).
_BREAKDOWN_BUCKETS = (
    ("verify climb", "layer", ("_verify_climb", "_update_parent_hash")),
    ("leaf hashing", "hash_engine", ("issue",)),
    ("pad generation", "aes_engine", ("issue",)),
    ("pad-cache coherence", "directory", ("on_fetch", "on_writeback")),
)


def _profile_breakdown(args, workload) -> None:
    """One instrumented integrated run; prints the memprotect split."""
    import time

    from .sim.sweep import build_system

    system = build_system(_profile_config("integrated", args))
    layer = system.memprotect
    timer = _ExclusiveTimer()
    owners = {"layer": layer, "hash_engine": layer.hash_engine,
              "aes_engine": layer.aes_engine,
              "directory": layer.directory}
    for bucket, owner_name, methods in _BREAKDOWN_BUCKETS:
        for method in methods:
            timer.wrap(owners[owner_name], method, bucket)
    for pad_cache in layer.pad_caches:
        for method in ("lookup", "install", "invalidate"):
            timer.wrap(pad_cache, method, "pad-cache coherence")
    # The callbacks themselves: what remains after the buckets above
    # is the layer's own dispatch (directory checks, counter bumps,
    # pad bus messages).
    timer.wrap(layer, "on_memory_fetch", "memprotect dispatch")
    timer.wrap(layer, "on_writeback", "memprotect dispatch")

    start = time.perf_counter()
    system.run(workload)
    total = time.perf_counter() - start

    rows = []
    accounted = 0.0
    order = [bucket for bucket, _, _ in _BREAKDOWN_BUCKETS]
    order.append("memprotect dispatch")
    for bucket in order:
        seconds = timer.buckets.get(bucket, 0.0)
        accounted += seconds
        rows.append([bucket, f"{seconds * 1e3:,.1f}",
                     f"{seconds / total * 100:5.1f}%"])
    rows.append(["core simulator (caches/bus/coherence)",
                 f"{(total - accounted) * 1e3:,.1f}",
                 f"{(total - accounted) / total * 100:5.1f}%"])
    rows.append(["total", f"{total * 1e3:,.1f}", "100.0%"])
    print(format_table(
        f"Memprotect time split — integrated, {args.workload}, "
        f"{args.cpus}P, {args.l2_mb}M L2, scale {args.scale:g} "
        "(one instrumented run; verify climb includes the coherent "
        "node fetches it triggers)",
        ["bucket", "ms", "share"], rows))


def _cmd_profile(args) -> int:
    import time

    from .sim.sweep import build_system

    workload = generate(args.workload, args.cpus, scale=args.scale,
                        seed=args.seed)
    accesses = workload.total_accesses
    rows = []
    for kind in args.configs:
        config = _profile_config(kind, args)
        best = None
        result = None
        for _ in range(max(1, args.repeats)):
            system = build_system(config)
            start = time.perf_counter()
            result = system.run(workload)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        rows.append([kind, f"{accesses / best:,.0f}",
                     f"{result.cycles / best / 1e6:,.1f}",
                     f"{best:.3f}"])
    print(format_table(
        f"Engine throughput — {args.workload}, {args.cpus}P, "
        f"{args.l2_mb}M L2, scale {args.scale:g} "
        f"({accesses} accesses)",
        ["config", "accesses/s", "Mcycles/s", "seconds"],
        rows))

    store = _checkpoint_summary()
    if store:
        print(f"checkpoint store  : {store}")

    if args.breakdown:
        _profile_breakdown(args, workload)

    if args.cprofile:
        import cProfile
        import pstats
        config = _profile_config(args.configs[0], args)
        system = build_system(config)
        profiler = cProfile.Profile()
        profiler.enable()
        system.run(workload)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("tottime").print_stats(15)
    return 0


def _cmd_overhead() -> int:
    report = compute_overhead(e6000_config())
    print(format_table("SHU hardware overhead (section 7.1)",
                       ["quantity", "value"], list(report.rows())))
    return 0


def _cmd_attacks() -> int:
    from repro.core.attacks import (DropAttack, SecureBusFabric,
                                    SpoofAttack, SwapAttack)
    from repro.core.authentication import AuthenticationManager
    from repro.core.shu import SecurityHardwareUnit
    from repro.errors import AuthenticationFailure, SpoofDetected

    def detected(attacker) -> str:
        members = set(range(4))
        shus = [SecurityHardwareUnit(pid, max_processors=8)
                for pid in range(4)]
        key = bytes(range(16))
        for shu in shus:
            shu.join_group(1, members, key,
                           bytes([0xA0 + i for i in range(16)]),
                           bytes([0x50 + i for i in range(16)]),
                           auth_interval=8)
        manager = AuthenticationManager(sorted(members), 8, 1)
        fabric = SecureBusFabric(shus, 1, manager, attacker)
        try:
            for index in range(16):
                fabric.transmit(index % 4, bytes([index] * 32))
            fabric.finish()
        except (AuthenticationFailure, SpoofDetected):
            return "DETECTED"
        return "missed"

    rows = [
        ["Type 1: simple drop", detected(DropAttack({3: [2]}))],
        ["Type 1: split-group drop",
         detected(DropAttack({3: [2, 3], 4: [0, 1]}))],
        ["Type 2: swap", detected(SwapAttack(first_index=2))],
        ["Type 3: spoof to claimed PID",
         detected(SpoofAttack(1, 1, 2, bytes(32), [2]))],
        ["Type 3: spoof to other member",
         detected(SpoofAttack(1, 1, 2, bytes(32), [3]))],
    ]
    print(format_table("SENSS attack detection", ["attack", "result"],
                       rows))
    return 0


def _cmd_faults(args) -> int:
    from .faults.campaign import run_campaign, verify_identity

    report = run_campaign(
        kinds=tuple(args.kinds) if args.kinds else FaultKind.ALL,
        policies=tuple(args.policies), workload=args.workload,
        cpus=args.cpus, scale=args.scale, seed=args.seed,
        interval=args.interval, record_diff=args.record_diff,
        fork=not args.no_fork, trigger=args.trigger)
    if args.verify_identity:
        identity = verify_identity(workload=args.workload,
                                   cpus=args.cpus, scale=args.scale,
                                   seed=args.seed)
        report["identity"] = identity

    rows = []
    for entry in report["entries"]:
        row = [
            entry["kind"], entry["policy"],
            "yes" if entry["detected"] else
            ("masked" if entry["masked"] else "NO"),
            entry["mechanism"] or "-",
            str(entry["latency_tx"]) if entry["detected"] else "-",
            f"{entry['latency_cycles']:,}" if entry["detected"] else "-",
            "completed" if entry["completed"] else "halted",
        ]
        if args.record_diff:
            divergence = entry["divergence"]
            first = divergence.get("first_divergence")
            row.append("none" if first is None else
                       f"@{first['cycle']:,} ({first['event']})")
        rows.append(row)
    headers = ["fault", "policy", "detected", "mechanism",
               "latency(tx)", "latency(cyc)", "run"]
    if args.record_diff:
        headers.append("diverges vs clean")
    print(format_table(
        f"Fault-injection campaign — {args.workload}, {args.cpus}P, "
        f"auth interval {args.interval}",
        headers, rows))
    print(f"all detected      : {report['all_detected']}")
    print(f"within interval   : {report['within_interval']}")
    if report.get("fork"):
        print(f"forked cells      : {report['forked_cells']}"
              f"/{len(report['entries'])}")
    if args.verify_identity:
        print(f"identity w/o fault: {report['identity']['identical']}")

    # Write the JSON before deciding the exit code so CI artifacts
    # exist even for a failing matrix.
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}", file=sys.stderr)
    ok = report["all_detected"] and report["within_interval"]
    if args.verify_identity:
        ok = ok and report["identity"]["identical"]
    return 0 if ok else 1


def _record_point(args):
    """The SweepPoint the record-command machine flags describe."""
    from .sim.sweep import SweepPoint
    if args.workload.endswith(".trace"):
        raise SystemExit("record needs a registry workload name; "
                         ".trace files cannot be re-generated by a "
                         "replay")
    return SweepPoint(args.workload, _machine_config(args),
                      scale=args.scale, seed=args.seed)


def _print_recording_summary(recording, path) -> None:
    snapshot_count = len(recording.snapshots)
    cycles = recording.cycles
    print(f"wrote {path}: {recording.events_total:,} events, "
          f"{snapshot_count} stats snapshots, "
          + (f"{cycles:,} cycles" if cycles is not None
             else f"halted ({recording.halted})")
          + f", fingerprint {recording.fingerprint[:12]}",
          file=sys.stderr)


def _cmd_record(args) -> int:
    from .obs import PhaseTimer, record_run

    point = _record_point(args)
    timer = PhaseTimer()
    with timer.phase("record"):
        recording = record_run(point,
                               snapshot_every=args.snapshot_every)
    if args.timings:
        # Timings are outside the checksum, so stamping them post-hoc
        # keeps the recording valid (but breaks byte-identity between
        # repeat recordings — hence opt-in).
        recording.payload["timings"] = timer.as_dict()
    path = recording.save(args.out)
    _print_recording_summary(recording, path)
    return 0


def _cmd_replay(args) -> int:
    from .errors import ConfigError, TraceError
    from .obs import Recording, diff_recordings, format_diff, \
        replay_recording

    try:
        source = Recording.load(args.recording)
        replayed = replay_recording(source, perturb=args.perturb,
                                    snapshot_every=args.snapshot_every)
    except (ConfigError, TraceError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 1
    out = args.out
    if out is None:
        base = args.recording
        if base.endswith(".json"):
            base = base[:-len(".json")]
        out = f"{base}.replay.json"
    path = replayed.save(out)
    _print_recording_summary(replayed, path)
    if not args.diff:
        return 0
    report = diff_recordings(source, replayed)
    print(format_diff(report))
    return 0 if report["identical"] else 1


def _cmd_diff(args) -> int:
    from .errors import TraceError
    from .obs import Recording, diff_recordings, format_diff

    try:
        report = diff_recordings(Recording.load(args.recording_a),
                                 Recording.load(args.recording_b))
    except TraceError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    # Write the JSON before printing (pipe-truncation safety, same
    # rationale as report/faults).
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}", file=sys.stderr)
    print(format_diff(report))
    return 0 if report["identical"] else 1


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .serve.http import ServeHTTP
    from .serve.scheduler import Scheduler
    from .sim.sweep import ResultCache

    if args.resume and args.state_dir is None:
        raise SystemExit("--resume needs --state-dir (the journal "
                         "lives there)")

    async def main() -> None:
        journal = None
        if args.state_dir is not None:
            from .serve.journal import JobJournal
            journal = JobJournal(args.state_dir)
        scheduler = Scheduler(cache=ResultCache(
                                  args.cache_dir,
                                  max_mb=args.cache_max_mb),
                              max_workers=args.workers,
                              max_queued_per_tenant=args.max_queued,
                              record_dir=args.record_dir,
                              journal=journal,
                              point_timeout=args.point_timeout,
                              retries=args.retries,
                              checkpoint_dir=args.checkpoint_dir)
        await scheduler.start()
        if args.resume:
            resumed = scheduler.resume()
            if resumed:
                print("resumed "
                      + ", ".join(job.id for job in resumed)
                      + " from the journal", file=sys.stderr)
        elif journal is not None:
            journal.rotate()  # archive a stale journal, don't replay
        server = await ServeHTTP(scheduler, args.host,
                                 args.port).start()
        print(f"repro serve listening on "
              f"http://{args.host}:{server.port} "
              f"({scheduler.max_workers} warm workers, "
              f"cache {args.cache_dir}"
              + (f", recordings {args.record_dir}"
                 if args.record_dir else "")
              + (f", checkpoints {args.checkpoint_dir}"
                 if args.checkpoint_dir else "")
              + (f", journal {args.state_dir}"
                 if args.state_dir else "") + ")", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - win32
                pass
        await stop.wait()
        print("draining: finishing accepted jobs...", file=sys.stderr)
        if await server.drain(timeout=args.drain_timeout):
            print("drained.", file=sys.stderr)
        else:
            print("drain timed out; unfinished jobs remain "
                  "journalled for --resume.", file=sys.stderr)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - no signal handler
        pass
    return 0


def _submit_points(args):
    from .sim.sweep import SweepPoint
    if args.workload.endswith(".trace"):
        raise SystemExit("submit needs a registry workload name; "
                         ".trace files are local to this process")
    config = _machine_config(args)
    return [SweepPoint(args.workload, config, scale=args.scale,
                       seed=args.seed + offset)
            for offset in range(max(1, args.seeds))]


def _cmd_submit(args) -> int:
    from .serve.client import ServeClient

    client = ServeClient(args.host, args.port)
    job = client.submit(_submit_points(args), tenant=args.tenant,
                        weight=args.weight, record=args.record)
    print(f"{job['id']}: {job['points']} points queued as tenant "
          f"{job['tenant']!r} (weight {job['weight']})",
          file=sys.stderr)
    if not args.follow:
        print(job["id"])
        return 0
    for event in client.stream_events(job["id"]):
        print(json.dumps(event, sort_keys=True))
    final = client.job(job["id"])
    rows = []
    for index, result in enumerate(client.results(job["id"])):
        rows.append([index, args.seed + index,
                     f"{result.cycles:,}" if result else "-",
                     f"{result.total_bus_transactions:,}"
                     if result else "-"])
    print(format_table(
        f"{job['id']} — {args.workload}, {args.cpus}P "
        f"[{final['state']}]",
        ["point", "seed", "cycles", "bus tx"], rows),
        file=sys.stderr)
    return 0 if final["state"] == "done" else 1


def _cmd_jobs(args) -> int:
    from .serve.client import ServeClient

    client = ServeClient(args.host, args.port)
    jobs = client.jobs(args.tenant)
    rows = []
    for job in jobs:
        quarantined = job.get("quarantined", [])
        rows.append([job["id"], job["tenant"], job["state"],
                     f"{job['completed']}/{job['points']}",
                     job["failed"] or "",
                     len(quarantined) or ""])
    print(format_table(f"jobs @ {args.host}:{args.port}",
                       ["id", "tenant", "state", "done", "failed",
                        "quar"],
                       rows))
    if args.no_reasons:
        return 0
    # Failure reasons used to be visible only in server logs /
    # SweepError.failures; surface them per point here.
    for job in jobs:
        if not job["failed"]:
            continue
        quarantined = set(job.get("quarantined", []))
        for index, error in enumerate(client.errors(job["id"])):
            if error is None:
                continue
            marker = " [quarantined]" if index in quarantined else ""
            print(f"  {job['id']} point {index}{marker}: {error}")
    return 0


def _cmd_chaos(args) -> int:
    from pathlib import Path

    from .chaos import run_chaos

    kinds = [kind.strip() for kind in args.faults.split(",")
             if kind.strip()]
    report = run_chaos(
        workload=args.workload, cpus=args.cpus, scale=args.scale,
        points=args.points, seed=args.seed, faults=kinds,
        workers=args.workers, point_timeout=args.point_timeout,
        record=args.record, work_dir=args.dir)
    print(report.format())
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=1, sort_keys=True)
            + "\n")
        print(f"chaos report written to {args.json}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_workloads() -> int:
    for name in SPLASH2_NAMES:
        workload = generate(name, 2, scale=0.05)
        print(f"{name:8s} {workload.total_accesses:7d} refs at scale "
              f"0.05; metadata: {workload.metadata}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "overhead":
            return _cmd_overhead()
        if args.command == "attacks":
            return _cmd_attacks()
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "record":
            return _cmd_record(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "workloads":
            return _cmd_workloads()
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
    except BrokenPipeError:
        # Output truncated by a closed pipe (e.g. `| head`): not an
        # error from the user's point of view.
        return 0
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
