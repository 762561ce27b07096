"""Regenerate ``golden.json``: per-workload result digests for seeds
0 and 1, computed from cold serial ``run_point`` calls (and a cold,
unforked fault campaign) — none of the caching, pooling, forking or
serving paths the benchmark exercises.

    PYTHONPATH=src python benchmarks/e2e/golden.py

Run it only when a change is *meant* to alter simulated results (an
``ENGINE_VERSION`` bump); a host-only change must leave every digest
as it is. It always rewrites both seeds, so the held-out digests are
never dropped.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

import common
import workloads


def _digest(points) -> str:
    from repro.sim.sweep import point_key, run_point
    from repro.workloads.registry import clear_memo
    results = {}
    for point in points:
        key = point_key(point)
        if key not in results:
            clear_memo()
            results[key] = run_point(point)
    return common.result_digest(results.items())


def golden_parts(workload: str, seed: int) -> Dict[str, str]:
    """The digest parts a run of ``workload`` at ``seed`` must match
    (the names each workload in workloads.py reports)."""
    if workload == "figures":
        return {"results": _digest(workloads.figures_points(seed))}
    if workload == "missheavy":
        return {"results": _digest(workloads.missheavy_points(seed))}
    if workload == "fork":
        from repro.faults.campaign import run_campaign
        chain = [point for _, family in workloads.fork_families(seed)
                 for point in family]
        report = run_campaign(fork=False, **workloads.campaign_kwargs(seed))
        return {"chain": _digest(chain),
                "campaign": common.report_digest(report)}
    parts = {"hot": _digest(workloads.serve_hot_set())}
    for burst in range(workloads.SERVE_BURSTS):
        jobs = workloads.serve_jobs(seed, f"burst{burst}",
                                    workloads.SERVE_BURST_JOBS,
                                    workloads.burst_interval_base(burst))
        parts[f"burst{burst}"] = _digest(
            [point for _, points in jobs for point in points])
    return parts


def main() -> int:
    digests = {
        workload: {str(seed): golden_parts(workload, seed)
                   for seed in common.GOLDEN_SEEDS}
        for workload in common.WORKLOADS}
    common.GOLDEN_JSON.write_text(json.dumps({
        "about": "sha256 digests of cold serial run_point results; "
                 "seed 0 is the default seed, seed 1 is held out",
        "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
