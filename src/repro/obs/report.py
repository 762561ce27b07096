"""Run reports: one JSON-ready summary per simulated comparison.

``python -m repro report`` runs a workload on the insecure baseline
and the secured machine (with histogram metrics attached), then
condenses both into a *report dict* — headline paper metrics, latency
distributions, the load-bearing counters, and wall-clock phase
timings. Reports serialize to JSON so
``tools/collect_results.py --reports`` can merge many runs into one
table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..smp.metrics import (SimulationResult, slowdown_percent,
                           traffic_increase_percent)

#: report dict schema version (bump with any shape change)
#: Version history: 1 = initial shape; 2 = histogram summaries carry
#: p95 (additive — version-1 readers still parse version-2 reports);
#: 3 = the resolved engine-backend name is gone (one engine).
REPORT_SCHEMA_VERSION = 3

#: counters surfaced in the report (absent counters are omitted)
KEY_COUNTERS = (
    "bus.transactions",
    "bus.cache_to_cache",
    "bus.with_memory",
    "bus.tx.Auth00",
    "coherence.invalidations",
    "coherence.writebacks",
    "senss.protected_messages",
    "senss.mask_stalls",
    "senss.mask_wait_cycles",
    "memprotect.pad_cache_hits",
    "memprotect.pad_cache_misses",
    "memprotect.hash_fetches",
    "memprotect.node_cache_hits",
)


def _config_block(result: SimulationResult) -> Dict[str, object]:
    hits = sum(value for name, value in result.stats.items()
               if name.endswith("l1_hit") or name.endswith("l2_hit"))
    slow = sum(value for name, value in result.stats.items()
               if name.endswith("l2_miss")
               or name.endswith("upgrade_needed"))
    block: Dict[str, object] = {
        "cycles": result.cycles,
        "per_cpu_cycles": list(result.per_cpu_cycles),
        "bus_transactions": result.total_bus_transactions,
        "cache_to_cache": result.cache_to_cache_transfers,
        "hit_rate": round(hits / (hits + slow), 6) if hits + slow
        else None,
        "counters": {name: result.stats[name] for name in KEY_COUNTERS
                     if name in result.stats},
    }
    return block


def build_report(baseline: SimulationResult,
                 secured: SimulationResult,
                 workload: str,
                 num_cpus: int,
                 scale: float,
                 histograms: Optional[Dict[str, dict]] = None,
                 timings: Optional[Dict[str, float]] = None
                 ) -> Dict[str, object]:
    """Assemble the mergeable report dict for one baseline/secured pair."""
    from ..sim.sweep import ENGINE_VERSION
    return {
        "kind": "repro-report",
        "schema_version": REPORT_SCHEMA_VERSION,
        "engine_version": ENGINE_VERSION,
        "workload": workload,
        "num_cpus": num_cpus,
        "scale": scale,
        "slowdown_percent": round(slowdown_percent(baseline, secured), 4),
        "traffic_increase_percent": round(
            traffic_increase_percent(baseline, secured), 4),
        "configs": {
            "baseline": _config_block(baseline),
            "secured": _config_block(secured),
        },
        "histograms": histograms or {},
        "timings": timings or {},
    }


def format_report(report: Dict[str, object]) -> str:
    """Human-readable rendering of a report dict (CLI output)."""
    from ..analysis.report import format_table
    sections: List[str] = []

    headline = [
        ["workload", report["workload"]],
        ["cpus", report["num_cpus"]],
        ["scale", report["scale"]],
        ["baseline cycles", f"{report['configs']['baseline']['cycles']:,}"],
        ["secured cycles", f"{report['configs']['secured']['cycles']:,}"],
        ["slowdown", f"{report['slowdown_percent']:+.3f}%"],
        ["traffic increase",
         f"{report['traffic_increase_percent']:+.3f}%"],
    ]
    sections.append(format_table("Run report", ["metric", "value"],
                                 headline))

    histograms = report.get("histograms") or {}
    if histograms:
        rows = [[name, summary["count"], summary["mean"],
                 summary["p50"], summary["p90"],
                 # version-1 reports predate p95
                 summary.get("p95", "-"), summary["p99"],
                 summary["max"]]
                for name, summary in sorted(histograms.items())]
        sections.append(format_table(
            "Latency / distribution metrics (cycles)",
            ["histogram", "count", "mean", "p50", "p90", "p95", "p99",
             "max"],
            rows))

    counters = report["configs"]["secured"].get("counters") or {}
    if counters:
        rows = [[name, f"{value:,}"]
                for name, value in sorted(counters.items())]
        sections.append(format_table("Secured-run counters",
                                     ["counter", "value"], rows))

    timings = report.get("timings") or {}
    if timings:
        rows = [[name, f"{seconds:.3f}"]
                for name, seconds in sorted(timings.items())]
        sections.append(format_table("Wall-clock phases (seconds)",
                                     ["phase", "seconds"], rows))
    return "\n\n".join(sections)
