"""End-to-end benchmark of the SENSS simulator: one command, every metric.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 \\
        [--workloads figures missheavy fork serve] [--trace] \\
        [--seconds 20] [--out results.json]

Each workload runs in a fresh interpreter (``workloads.py``) in its
own process group; every process it leaves behind is reaped or killed
before the next starts. The run prints every metric by name with its
unit, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. It exits 1 when an
output check failed (a digest mismatch, a sweep or served error) and
2 when it cannot run at all (outside a checkout with ``src/repro``, or
with a knob set that would change what is measured).

``--workload`` is another spelling of ``--workloads``, and ``--trace``
takes an optional 0/1, so the form
``run.py --workload fork --seed 3 --seconds 20 --trace 0`` works too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import common

#: a workload process that outlives this is killed. The limit is per
#: workload: with the reaping below, a one-workload run ends within
#: 180 s even when its workload hangs.
CHILD_TIMEOUT_S = 150.0
#: how long stragglers of a finished workload may take to exit (twice
#: at most: once before and once after the group is killed)
REAP_GRACE_S = 10.0

#: what each end-to-end metric measures per workload (and the name the
#: quantity goes by elsewhere, where it has one)
MEANING = {
    ("figures", "batch_s"): "cold_s: Fig 6-10 grid, 2 workers, empty cache",
    ("figures", "job_p50_ms"): "warm_s: re-read of the grid from the cache",
    ("missheavy", "batch_s"): "one pass over the four miss-heavy points",
    ("missheavy", "job_p50_ms"): "one miss-heavy point",
    ("fork", "batch_s"): "chain into an empty store + forked campaign",
    ("fork", "job_p50_ms"): "one point re-forked from the filled store",
    ("serve", "batch_s"): "burst of 120 novel jobs until the last is done",
    ("serve", "job_p50_ms"): "job_p50_ms: open loop, due to finished",
}


def _become_subreaper() -> None:
    """Adopt orphaned descendants (fork servers, resource trackers) so
    they can be waited for (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _reap(group: int) -> None:
    """Wait for every descendant; kill the workload's process group
    if stragglers outlive the grace period."""
    deadline = time.monotonic() + REAP_GRACE_S
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                return
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
            deadline = time.monotonic() + REAP_GRACE_S
        time.sleep(0.02)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload in a fresh interpreter and return its outcome."""
    scratch = common.WORK_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / f"{workload}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(common.SRC_DIR)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    # Temporary files (multiprocessing's fork-server socket among
    # them) go to the workload's working directory, inside the
    # checkout; a relative name keeps the socket path short.
    env["TMPDIR"] = "."
    command = [sys.executable, str(common.E2E_DIR / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--out", str(out)]
    child = subprocess.Popen(command, cwd=scratch, env=env,
                             stdout=sys.stderr, start_new_session=True)
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    _reap(child.pid)
    try:
        outcome = json.loads(out.read_text())
    except (OSError, ValueError):
        outcome = {"workload": workload, "seed": seed, "trace": trace,
                   "correct": False, "attempted": 1, "failed": 1,
                   "errors": [f"workload process exited with "
                              f"{child.returncode} and no result"],
                   "metrics": {}, "detail": {}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return outcome


def expected_metrics(benchmark: dict, trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics a run must report."""
    entries = benchmark["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def check_metrics(outcome: dict, expected: Dict[str, str]) -> None:
    """A workload must report exactly the declared metrics and units."""
    reported = {name: value.get("unit")
                for name, value in outcome["metrics"].items()}
    if reported != expected:
        outcome["correct"] = False
        outcome["failed"] = outcome.get("failed", 0) + 1
        missing = sorted(set(expected) - set(reported))
        outcome.setdefault("errors", []).append(
            f"metric set differs from BENCHMARK.json (missing {missing})")


def print_outcome(outcome: dict, trace: bool) -> None:
    workload = outcome["workload"]
    detail = outcome.get("detail", {})
    print(f"== {workload} (seed {outcome['seed']}, "
          f"{'traced' if trace else 'untraced'})")
    for name, value in outcome["metrics"].items():
        meaning = MEANING.get((workload, name), "")
        print(f"  {name:<36} {value['value']:>16.6g} {value['unit']:<6}"
              f" {meaning}")
    attempted = outcome.get("attempted", 1)
    failed = outcome.get("failed", 0)
    print(f"  {'failed_frac':<36} {failed / max(1, attempted):>16.6g} "
          f"{'ratio':<6} {failed} of {attempted} operations")
    if "accesses_per_s" in detail:
        print(f"  {'accesses_per_s':<36} "
              f"{detail['accesses_per_s']:>16.6g} {'1/s':<6} "
              "simulated accesses per host second")
    for part, value in detail.get("part_median_s", {}).items():
        print(f"  {part + '_s':<36} {value:>16.6g} {'s':<6} median")
    jobs = detail.get("job_ms")
    if jobs:
        for name in ("p90", "p99"):
            print(f"  {'job_' + name + '_ms':<36} {jobs[name]:>16.6g} "
                  f"{'ms':<6} n={jobs['n']} (not gated)")
    if "lateness_p95_ms" in detail:
        print(f"  {'lateness_p95_ms':<36} "
              f"{detail['lateness_p95_ms']:>16.6g} {'ms':<6} "
              f"{'valid' if detail['valid'] else 'INVALID: generator late'}")
    for value in detail.get("drain_jobs_per_s", []):
        print(f"  {'drain_jobs_per_s':<36} {value:>16.6g} {'1/s':<6}")
    if "digest" in detail:
        print(f"  digest {detail['digest'][:16]} golden: "
              f"{detail.get('golden')}")
    for error in outcome.get("errors", []):
        print(f"  ERROR {error}")
    print(f"  load {outcome.get('load_before')} -> "
          f"{outcome.get('load_after')}")


def summary(outcomes: List[dict]) -> dict:
    """The last-line object; one workload reports bare metric names,
    several prefix them with the workload."""
    metrics = {}
    for outcome in outcomes:
        for name, value in outcome["metrics"].items():
            key = name if len(outcomes) == 1 \
                else f"{outcome['workload']}.{name}"
            metrics[key] = value
    return {
        "correct": all(outcome["correct"] for outcome in outcomes),
        "attempted": sum(outcome.get("attempted", 1)
                         for outcome in outcomes),
        "failed": sum(outcome.get("failed", 0) for outcome in outcomes),
        "metrics": metrics,
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", "--workload", nargs="+",
                        action="extend", choices=common.WORKLOADS,
                        default=[], help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    refused = common.forbidden_env()
    if refused:
        print(f"refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    if not (common.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {common.SRC_DIR}",
              file=sys.stderr)
        return 2
    benchmark = json.loads(common.BENCHMARK_JSON.read_text())
    seconds = args.seconds if args.seconds is not None \
        else float(benchmark["run_seconds"])
    workloads = list(dict.fromkeys(args.workloads)) or list(common.WORKLOADS)
    trace = bool(args.trace)
    expected = expected_metrics(benchmark, trace)
    _become_subreaper()
    facts = common.host_facts()
    print(f"commit {facts['commit']}  nproc {facts['nproc']}  "
          f"python {facts['python']}  seconds {seconds:g}")
    outcomes = []
    for workload in workloads:
        outcome = run_workload(workload, args.seed, seconds, trace)
        check_metrics(outcome, expected)
        print_outcome(outcome, trace)
        outcomes.append(outcome)
    result = summary(outcomes)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "host": facts, "seed": args.seed, "seconds": seconds,
            "trace": trace, "summary": result, "workloads": outcomes},
            indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
