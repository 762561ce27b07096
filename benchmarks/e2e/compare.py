"""Compare two sets of benchmark runs (parent A, change B).

    python benchmarks/e2e/compare.py --a a1.json a2.json --b b1.json b2.json

Each file is a ``run.py --out`` result. A run of A is paired with the
run of B that has the same workload and seed and the same position
among that seed's runs on its side; runs without a partner are listed
and left out of the pair counts. For every workload and metric the
table shows both sides' median and quartiles, the metric's bound from
BENCHMARK.json, the share of pairs B won, and a verdict under the
choosing-metrics rules:

- ``better``: B wins at least 9 in 10 of at least 10 pairs (ties count
  for neither) and the medians differ by more than A's interquartile
  range; a gain that meets these but has fewer pairs is
  ``unresolved``;
- ``same``: B's median is worse by no more than the metric's absolute
  floor, or every B run beats every A run;
- ``unresolved``: otherwise, when A's own spread (interquartile range
  over median) exceeds the bound;
- ``worse``: B's median is worse than A's by more than the bound;
- ``same`` otherwise.

Each workload also gets a ``failed_frac`` row (failed over attempted
operations, summed over its runs): ``worse`` when B's share is higher
than A's, or when any B run is not correct or is marked invalid (a
late ``serve`` generator). In either case no metric of that workload
is rated ``better``.

Traced runs are compared metric by metric with no verdict (per-layer
metrics have no bound). Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common

#: absolute floors below which a worsening is never a regression
FLOORS = {
    ("*", "setup_s"): 0.5,
    ("figures", "job_p50_ms"): 5.0,
    ("serve", "job_p50_ms"): 3.0,
}

#: a gain needs at least this share of pair wins ...
WIN_SHARE = 0.9
#: ... out of at least this many pairs
MIN_PAIRS = 10


def load_runs(paths: Sequence[Path]) -> List[dict]:
    """Per-workload outcomes of ``run.py --out`` files, in file order."""
    outcomes = []
    for path in paths:
        outcomes.extend(json.loads(Path(path).read_text())["workloads"])
    return outcomes


def run_keys(outcomes: List[dict]) -> List[Tuple[str, int, int]]:
    """``(workload, seed, n)`` per outcome, where ``n`` counts earlier
    outcomes of the same workload and seed: the pairing key."""
    seen: Dict[Tuple[str, int], int] = {}
    keys = []
    for outcome in outcomes:
        slot = (outcome["workload"], outcome["seed"])
        keys.append(slot + (seen.get(slot, 0),))
        seen[slot] = seen.get(slot, 0) + 1
    return keys


def _worse_by(a: float, b: float, lower_is_better: bool) -> float:
    """How much worse b is than a (positive = worse), absolute."""
    return b - a if lower_is_better else a - b


def _spread(q: Dict[str, float]) -> float:
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


def verdict(a: List[float], b: List[float],
            pairs: List[Tuple[float, float]], bound: float,
            lower_is_better: bool, floor: float = 0.0
            ) -> Dict[str, object]:
    """Verdict of B against A for one metric (module docstring); ``a``
    and ``b`` are every run of each side, ``pairs`` the paired ones."""
    qa, qb = common.quartiles(a), common.quartiles(b)
    spread = _spread(qa)
    wins = sum(1 for x, y in pairs if _worse_by(x, y, lower_is_better) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    gap = _worse_by(qa["median"], qb["median"], lower_is_better)
    all_better = all(_worse_by(x, y, lower_is_better) < 0
                     for x in a for y in b)
    if win_share >= WIN_SHARE and -gap > qa["q3"] - qa["q1"]:
        result = "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    elif gap <= floor or all_better:
        result = "same"
    elif spread > bound:
        result = "unresolved"
    elif gap > bound * abs(qa["median"]):
        result = "worse"
    else:
        result = "same"
    return {"a": qa, "b": qb, "spread": spread, "win_share": win_share,
            "pairs": len(pairs), "verdict": result}


def _failed_fraction(outcomes: List[dict]) -> float:
    attempted = sum(outcome.get("attempted", 1) for outcome in outcomes)
    failed = sum(outcome.get("failed", 0) for outcome in outcomes)
    return failed / max(1, attempted)


def _sound(outcome: dict) -> bool:
    """A run whose outputs checked out and whose load was as intended."""
    return bool(outcome.get("correct")) and \
        outcome.get("detail", {}).get("valid", True) is not False


def failure_row(workload: str, a_runs: List[dict],
                b_runs: List[dict]) -> dict:
    """The workload's ``failed_frac`` row: any increase, and any B run
    that is not sound, is ``worse``."""
    a_frac, b_frac = _failed_fraction(a_runs), _failed_fraction(b_runs)
    unsound = sum(1 for outcome in b_runs if not _sound(outcome))
    if b_frac > a_frac or unsound:
        result = "worse"
    elif b_frac < a_frac:
        result = "better"
    else:
        result = "same"
    return {"workload": workload, "metric": "failed_frac",
            "a": common.quartiles([a_frac]), "b": common.quartiles([b_frac]),
            "unsound_b_runs": unsound, "verdict": result}


def compare(a_runs: List[dict], b_runs: List[dict], benchmark: dict
            ) -> Tuple[List[dict], List[tuple]]:
    """Rows per (workload, metric) present on both sides, each
    workload's ``failed_frac`` row, and the unpaired runs as
    ``(side, workload, seed, n)``."""
    bounds = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    directions = {entry["name"]: entry["better"]
                  for entry in benchmark["end_to_end"]
                  + benchmark["per_layer"]}
    a_by_key = dict(zip(run_keys(a_runs), a_runs))
    b_by_key = dict(zip(run_keys(b_runs), b_runs))
    paired = sorted(set(a_by_key) & set(b_by_key))
    unpaired = sorted([("A",) + key for key in set(a_by_key) - set(b_by_key)]
                      + [("B",) + key for key in set(b_by_key)
                         - set(a_by_key)])
    rows = []
    for workload in sorted({key[0] for key in a_by_key}
                           & {key[0] for key in b_by_key}):
        a_side = [run for key, run in a_by_key.items() if key[0] == workload]
        b_side = [run for key, run in b_by_key.items() if key[0] == workload]
        failures = failure_row(workload, a_side, b_side)
        names = sorted(set().union(*(run["metrics"] for run in a_side))
                       & set().union(*(run["metrics"] for run in b_side)))
        for name in names:
            a = [run["metrics"][name]["value"] for run in a_side
                 if name in run["metrics"]]
            b = [run["metrics"][name]["value"] for run in b_side
                 if name in run["metrics"]]
            pairs = [(a_by_key[key]["metrics"][name]["value"],
                      b_by_key[key]["metrics"][name]["value"])
                     for key in paired if key[0] == workload
                     and name in a_by_key[key]["metrics"]
                     and name in b_by_key[key]["metrics"]]
            lower = directions.get(name, "lower") == "lower"
            row = {"workload": workload, "metric": name}
            if name in bounds:
                floor = FLOORS.get((workload, name),
                                   FLOORS.get(("*", name), 0.0))
                row.update(verdict(a, b, pairs, bounds[name]["bound"],
                                   lower, floor))
                row["bound"] = bounds[name]["bound"]
                if row["verdict"] == "better" and \
                        failures["verdict"] == "worse":
                    row["verdict"] = "unresolved"
            else:
                row.update({"a": common.quartiles(a),
                            "b": common.quartiles(b), "verdict": ""})
            rows.append(row)
        rows.append(failures)
    return rows, unpaired


def format_rows(rows: List[dict]) -> str:
    lines = [f"{'workload':<10} {'metric':<34} {'A q1/med/q3':>30} "
             f"{'B q1/med/q3':>30} {'bound':>6} {'wins':>9}  verdict"]

    def triple(q: dict) -> str:
        return f"{q['q1']:.4g}/{q['median']:.4g}/{q['q3']:.4g}"

    for row in rows:
        bound = f"{row['bound']:.2f}" if "bound" in row else ""
        wins = f"{row['win_share']:.2f}/{row['pairs']}" \
            if "win_share" in row else ""
        note = f" ({row['unsound_b_runs']} B runs not correct or " \
               "invalid)" if row.get("unsound_b_runs") else ""
        lines.append(f"{row['workload']:<10} {row['metric']:<34} "
                     f"{triple(row['a']):>30} {triple(row['b']):>30} "
                     f"{bound:>6} {wins:>9}  {row['verdict']}{note}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", type=Path, required=True,
                        help="run.py --out files of the parent")
    parser.add_argument("--b", nargs="+", type=Path, required=True,
                        help="run.py --out files of the change")
    args = parser.parse_args(argv)
    benchmark = json.loads(common.BENCHMARK_JSON.read_text())
    rows, unpaired = compare(load_runs(args.a), load_runs(args.b),
                             benchmark)
    print(format_rows(rows))
    for side, workload, seed, order in unpaired:
        print(f"unpaired: {side} run {order} of {workload} seed {seed}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
