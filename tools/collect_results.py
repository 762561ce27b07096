#!/usr/bin/env python3
"""Consolidate archived bench tables into one report.

Reads every table under ``benchmarks/results/`` (written by the bench
suite's ``emit`` fixture) and concatenates them — in the paper's
figure order — into ``benchmarks/results/REPORT.txt`` and stdout.

    python tools/collect_results.py [--quiet]

With ``--reports``, instead merges ``python -m repro report --json``
outputs from multiple runs into one comparison table:

    python tools/collect_results.py --reports run1.json run2.json

With ``--bench-diff``, compares two ``BENCH_engine.json`` snapshots
(old first) and prints the per-config throughput speedups — the table
used in PR descriptions and by the CI regression gate:

    python tools/collect_results.py --bench-diff OLD.json NEW.json

With ``--diffs``, merges ``repro diff --json`` recording-diff reports
(docs/record_replay.md) from a perturbation study into one table —
one row per diff: the perturbed knob, first-divergence location,
cycle delta and changed-counter count:

    python tools/collect_results.py --diffs d1.json d2.json ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Paper presentation order; anything not listed sorts after, by name.
ORDER = [
    "table1_bus_encryption.txt",
    "sec2_uniprocessor.txt",
    "sec43_attacks.txt",
    "sec44_bus_speed.txt",
    "fig6_slowdown_1mb.txt",
    "fig6_slowdown_4mb.txt",
    "fig7_masks.txt",
    "fig8_traffic_1mb.txt",
    "fig8_traffic_4mb.txt",
    "fig9_interval.txt",
    "fig10_integrated.txt",
    "fig11_variability.txt",
    "sec71_overhead.txt",
    "characterization.txt",
    "sec78_seeds.txt",
    "ablation_gcm.txt",
    "ablation_lhash.txt",
    "ablation_pad_protocol.txt",
    "ablation_protocols.txt",
    "ablation_snc.txt",
    "ext_multiprogram.txt",
    "ext_split_bus.txt",
]


def collect(results_dir: Path) -> str:
    available = {path.name: path
                 for path in results_dir.glob("*.txt")
                 if path.name != "REPORT.txt"}
    ordered = [name for name in ORDER if name in available]
    ordered += sorted(set(available) - set(ORDER))
    sections = []
    for name in ordered:
        sections.append(available[name].read_text().rstrip())
    missing = [name for name in ORDER if name not in available]
    header = ["SENSS reproduction — consolidated bench results",
              f"({len(ordered)} tables; regenerate with "
              "`pytest benchmarks/ --benchmark-only`)"]
    if missing:
        header.append("missing (bench not yet run): "
                      f"{', '.join(missing)}")
    return "\n".join(header) + "\n\n" + "\n\n".join(sections) + "\n"


def _format_table(title, headers, rows):
    """Minimal fixed-width table (kept stdlib-only, no repro import)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [max(len(header), *(len(row[i]) for row in cells))
              if cells else len(header)
              for i, header in enumerate(headers)]
    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, rule,
             "  ".join(header.ljust(width)
                       for header, width in zip(headers, widths)),
             rule]
    for row in cells:
        lines.append("  ".join(value.ljust(width)
                               for value, width in zip(row, widths)))
    lines.append(rule)
    return "\n".join(lines)


def merge_reports(paths) -> str:
    """Merge ``repro report --json`` files into one comparison table.

    Each input must be a ``kind: "repro-report"`` dict (any schema
    version — only headline fields are read). Rows are ordered by
    (workload, cpus, scale) so repeated collections are stable.
    """
    reports = []
    for path in paths:
        path = Path(path)
        payload = json.loads(path.read_text())
        if payload.get("kind") != "repro-report":
            raise ValueError(f"{path} is not a repro report "
                             "(missing kind: repro-report)")
        reports.append((path.name, payload))
    reports.sort(key=lambda item: (item[1].get("workload", ""),
                                   item[1].get("num_cpus", 0),
                                   item[1].get("scale", 0.0),
                                   item[0]))
    rows = []
    for name, payload in reports:
        configs = payload.get("configs", {})
        baseline = configs.get("baseline", {})
        secured = configs.get("secured", {})
        rows.append([
            payload.get("workload", "?"),
            payload.get("num_cpus", "?"),
            payload.get("scale", "?"),
            f"{baseline.get('cycles', 0):,}",
            f"{secured.get('cycles', 0):,}",
            f"{payload.get('slowdown_percent', 0):+.3f}",
            f"{payload.get('traffic_increase_percent', 0):+.3f}",
            name,
        ])
    return _format_table(
        f"Merged run reports ({len(reports)} runs)",
        ["workload", "cpus", "scale", "base cycles", "senss cycles",
         "slowdown %", "traffic %", "source"],
        rows)


def _bench_sections(payload):
    """Yield (label-prefix, configs dict) for a BENCH_engine report."""
    yield "", payload.get("configs", {})
    yield "missheavy/", payload.get("missheavy", {}).get("configs", {})


def bench_diff(old_path, new_path) -> str:
    """Per-config speedup table between two BENCH_engine.json files.

    Configs present in only one snapshot are listed with a ``-`` in
    the missing column so renames/additions are visible rather than
    silently dropped.
    """
    payloads = []
    for path in (old_path, new_path):
        path = Path(path)
        payload = json.loads(path.read_text())
        if "configs" not in payload:
            raise ValueError(f"{path} is not an engine bench report "
                             "(missing configs)")
        payloads.append((path.name, payload))
    (old_name, old), (new_name, new) = payloads
    rows = []
    for (prefix, old_configs), (_, new_configs) in zip(
            _bench_sections(old), _bench_sections(new)):
        for kind in dict.fromkeys([*old_configs, *new_configs]):
            old_rate = old_configs.get(kind, {}).get(
                "accesses_per_second")
            new_rate = new_configs.get(kind, {}).get(
                "accesses_per_second")
            if old_rate and new_rate:
                speedup = f"{new_rate / old_rate:.2f}x"
                delta = f"{(new_rate / old_rate - 1) * 100:+.1f}%"
            else:
                speedup = delta = "-"
            rows.append([prefix + kind,
                         f"{old_rate:,}" if old_rate else "-",
                         f"{new_rate:,}" if new_rate else "-",
                         speedup, delta])
    return _format_table(
        f"Engine throughput diff — {old_name} -> {new_name} "
        "(accesses/s)",
        ["config", "old", "new", "speedup", "delta"], rows)


def merge_diffs(paths) -> str:
    """Merge ``repro diff --json`` reports into one divergence table.

    Each input must be a ``kind: "repro-recording-diff"`` dict. Rows
    are ordered by (workload, perturbation, source name) so repeated
    collections are stable.
    """
    reports = []
    for path in paths:
        path = Path(path)
        payload = json.loads(path.read_text())
        if payload.get("kind") != "repro-recording-diff":
            raise ValueError(f"{path} is not a recording diff "
                             "(missing kind: repro-recording-diff)")
        reports.append((path.name, payload))

    def _perturb_label(payload):
        perturbation = payload.get("perturbation")
        if not perturbation:
            return "none"
        return f"{perturbation['name']}={perturbation['value']}"

    reports.sort(key=lambda item: (
        item[1].get("workload", {}).get("name", ""),
        _perturb_label(item[1]), item[0]))
    rows = []
    for name, payload in reports:
        workload = payload.get("workload", {})
        first = payload.get("first_divergence")
        cycles = payload.get("cycles")
        if payload.get("identical"):
            where = "identical"
        elif first is None:
            where = "?"
        else:
            side = first.get("b") or first.get("a") or {}
            where = (f"@{side.get('cycle', 0):,} "
                     f"({side.get('name', '?')})")
        rows.append([
            workload.get("name", "?"),
            workload.get("cpus", "?"),
            _perturb_label(payload),
            where,
            f"{cycles['delta']:+,}" if cycles else "-",
            len(payload.get("counters", {})),
            name,
        ])
    return _format_table(
        f"Merged recording diffs ({len(reports)} runs)",
        ["workload", "cpus", "perturbation", "first divergence",
         "cycles delta", "counters", "source"],
        rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true",
                        help="write REPORT.txt without printing")
    parser.add_argument("--results-dir", type=Path,
                        default=Path(__file__).parents[1]
                        / "benchmarks" / "results")
    parser.add_argument("--reports", nargs="+", metavar="JSON",
                        help="merge `repro report --json` files into "
                             "one table instead of collecting bench "
                             "tables")
    parser.add_argument("--bench-diff", nargs=2,
                        metavar=("OLD", "NEW"),
                        help="print per-config speedups between two "
                             "BENCH_engine.json snapshots")
    parser.add_argument("--diffs", nargs="+", metavar="JSON",
                        help="merge `repro diff --json` recording "
                             "diffs into one divergence table")
    args = parser.parse_args(argv)
    if args.diffs:
        try:
            table = merge_diffs(args.diffs)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(table)
        return 0
    if args.bench_diff:
        try:
            table = bench_diff(*args.bench_diff)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(table)
        return 0
    if args.reports:
        try:
            table = merge_reports(args.reports)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(table)
        return 0
    if not args.results_dir.is_dir():
        print(f"no results directory at {args.results_dir}; run the "
              "bench suite first", file=sys.stderr)
        return 1
    report = collect(args.results_dir)
    (args.results_dir / "REPORT.txt").write_text(report)
    if not args.quiet:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
