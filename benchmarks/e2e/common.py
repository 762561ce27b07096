"""Shared helpers of the end-to-end benchmark: paths, statistics,
output digests, host facts and run hygiene.

Nothing here imports the simulator, so ``run.py`` and ``compare.py``
can use it before (or without) ``src/`` being importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

E2E_DIR = Path(__file__).resolve().parent
#: the checkout the benchmark measures (``benchmarks/e2e`` sits two
#: levels below it)
ROOT = E2E_DIR.parent.parent
SRC_DIR = ROOT / "src"
#: scratch space for caches, stores, journals and traces; listed in
#: the root .gitignore and always inside the checkout
WORK_DIR = ROOT / ".e2e_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_JSON = E2E_DIR / "golden.json"

WORKLOADS = ("figures", "missheavy", "fork", "serve")
#: seeds whose digests golden.json holds: the default and a held-out one
GOLDEN_SEEDS = (0, 1)

#: knobs that would change what the benchmark measures; the run
#: refuses to start while any is set (``REPRO_BENCH_*`` is a prefix)
FORBIDDEN_ENV = ("REPRO_ENGINE", "REPRO_SWEEP_PARALLEL",
                 "REPRO_SWEEP_WORKERS", "REPRO_CHAOS_PLAN")
FORBIDDEN_ENV_PREFIX = "REPRO_BENCH_"

#: report keys that only say *how* a campaign ran (forked or cold),
#: stripped before digesting so forked and cold reports compare equal
FORK_BOOKKEEPING_KEYS = frozenset({"fork", "forked", "forked_cells"})


def forbidden_env(environ: Optional[Dict[str, str]] = None) -> List[str]:
    """Names of set environment variables the benchmark refuses."""
    environ = os.environ if environ is None else environ
    return sorted(name for name in environ
                  if name in FORBIDDEN_ENV
                  or name.startswith(FORBIDDEN_ENV_PREFIX))


# -- statistics ----------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1]) of the
    samples; the inclusive method, so p0/p100 are the min/max."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def latency_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, p90, p99 and the sample count of a latency sample set."""
    return {
        "n": len(values),
        "p50": percentile(values, 0.5),
        "p90": percentile(values, 0.9),
        "p99": percentile(values, 0.99),
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """First quartile, median and third quartile (``percentile``)."""
    return {"q1": percentile(values, 0.25),
            "median": percentile(values, 0.5),
            "q3": percentile(values, 0.75)}


# -- output digests -------------------------------------------------------


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


def result_digest(keyed_results: Iterable) -> str:
    """sha256 over canonical JSON of ``(point_key, cycles,
    per_cpu_cycles, stats)`` rows sorted by key, so neither result
    order nor dict insertion order changes it."""
    rows = sorted(
        [key, result.cycles, list(result.per_cpu_cycles),
         dict(result.stats)]
        for key, result in keyed_results)
    return hashlib.sha256(_canonical(rows)).hexdigest()


def strip_fork_keys(payload):
    """``payload`` with every fork-bookkeeping key removed, recursively."""
    if isinstance(payload, dict):
        return {key: strip_fork_keys(value)
                for key, value in payload.items()
                if key not in FORK_BOOKKEEPING_KEYS}
    if isinstance(payload, list):
        return [strip_fork_keys(value) for value in payload]
    return payload


def report_digest(report: dict) -> str:
    """sha256 of a fault-campaign report minus fork bookkeeping."""
    return hashlib.sha256(_canonical(strip_fork_keys(report))).hexdigest()


def combine_digests(parts: Dict[str, str]) -> str:
    """One digest over named part digests."""
    return hashlib.sha256(_canonical(parts)).hexdigest()


def load_golden() -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{workload: {seed: {part: digest}}}`` from golden.json (empty
    if absent)."""
    try:
        return json.loads(GOLDEN_JSON.read_text())["digests"]
    except FileNotFoundError:
        return {}


# -- host facts -------------------------------------------------------------


def git_commit(root: Path = ROOT) -> str:
    """HEAD's commit id read straight from ``.git`` (no git process:
    the benchmark reads nothing outside its checkout); "unknown" when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_facts() -> Dict[str, object]:
    return {
        "commit": git_commit(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_average() -> List[float]:
    try:
        return [round(value, 2) for value in os.getloadavg()]
    except OSError:  # pragma: no cover - unavailable
        return []


def peak_rss_mb() -> float:
    """Larger of this process's and its largest reaped child's peak
    resident set (``getrusage`` reports KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
