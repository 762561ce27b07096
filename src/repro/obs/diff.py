"""Structured diff of two recordings: where did the timing diverge?

:func:`diff_recordings` aligns the two event streams and reduces the
comparison to the questions a cycle-drift investigation actually
asks:

- **first divergence** — the earliest event index where the ordered
  streams disagree (rendered human-readably: name, category, cycle,
  CPU, decoded payload for both sides);
- **per-phase deltas** — authentication checkpoints split a run into
  phases; aligned snapshot *k* vs snapshot *k* gives the cycle skew at
  each boundary and the per-phase segment delta, so a drift localizes
  to the interval where the skew jumped;
- **per-counter deltas** — final StatsRegistry values side by side,
  only the counters that differ;
- **divergence histogram** — events paired per (CPU, kind) lane by
  occurrence index; the distribution of cycle skews (power-of-two
  buckets) shows whether a perturbation shifted everything uniformly
  or knocked a few events far out of place.

Two recordings are ``identical`` when events, snapshots, final result
and halt state all match — fingerprints, perturbation labels and
wall-clock timings are metadata and never count as divergence. The
diff of a recording against its own unperturbed replay is empty
(pinned by tests/obs/test_replay_diff.py).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, Iterable, List, Optional, Tuple

from .recording import Recording
from .ring import TraceEvent

#: diff report schema version (bump with any shape change)
DIFF_SCHEMA_VERSION = 1

#: cap on per-phase rows carried in the JSON report
MAX_PHASE_ROWS = 64


def _render(event: Optional[TraceEvent]) -> Optional[Dict[str, object]]:
    """Human-readable event rendering (reuses the Perfetto decoder)."""
    if event is None:
        return None
    from .export import _convert
    converted = _convert(event)
    return {"name": converted["name"], "category": converted["cat"],
            "cycle": event.cycle, "cpu": event.cpu, "dur": event.dur,
            "args": converted["args"]}


def _first_divergence(events_a: Iterable[TraceEvent],
                      events_b: Iterable[TraceEvent]
                      ) -> Optional[Dict[str, object]]:
    """The first index where the streams differ, a stream that ended
    first included (its side renders as None); stops there."""
    for index, (left, right) in enumerate(zip_longest(events_a,
                                                      events_b)):
        if left != right:
            return {"index": index, "a": _render(left),
                    "b": _render(right)}
    return None


def _phase_deltas(a: Recording, b: Recording) -> Dict[str, object]:
    """Aligned snapshot-boundary cycle skews and segment deltas."""
    snaps_a, snaps_b = a.snapshots, b.snapshots
    aligned = min(len(snaps_a), len(snaps_b))
    rows: List[Dict[str, int]] = []
    previous_a = previous_b = 0
    for ordinal in range(aligned):
        cycle_a = snaps_a[ordinal]["cycle"]
        cycle_b = snaps_b[ordinal]["cycle"]
        segment_delta = (cycle_b - previous_b) - (cycle_a - previous_a)
        if cycle_a != cycle_b or segment_delta:
            rows.append({"ordinal": ordinal, "cycle_a": cycle_a,
                         "cycle_b": cycle_b,
                         "skew": cycle_b - cycle_a,
                         "segment_delta": segment_delta})
        previous_a, previous_b = cycle_a, cycle_b
    return {
        "aligned": aligned,
        "extra_a": len(snaps_a) - aligned,
        "extra_b": len(snaps_b) - aligned,
        "diverged": len(rows),
        "rows": rows[:MAX_PHASE_ROWS],
        "truncated": max(0, len(rows) - MAX_PHASE_ROWS),
    }


def _counter_deltas(a: Recording, b: Recording
                    ) -> Dict[str, Dict[str, int]]:
    stats_a, stats_b = a.final_stats(), b.final_stats()
    deltas: Dict[str, Dict[str, int]] = {}
    for name in sorted(set(stats_a) | set(stats_b)):
        left = stats_a.get(name, 0)
        right = stats_b.get(name, 0)
        if left != right:
            deltas[name] = {"a": left, "b": right,
                            "delta": right - left}
    return deltas


def _skew_histogram(events_a: List[TraceEvent],
                    events_b: List[TraceEvent]) -> Dict[str, object]:
    """Pair events per (cpu, kind) lane by occurrence index; bucket
    the cycle skews (power-of-two on magnitude, zero counted apart)."""
    lanes_a: Dict[Tuple[int, int], List[int]] = {}
    lanes_b: Dict[Tuple[int, int], List[int]] = {}
    for event in events_a:
        lanes_a.setdefault((event.cpu, event.kind),
                           []).append(event.cycle)
    for event in events_b:
        lanes_b.setdefault((event.cpu, event.kind),
                           []).append(event.cycle)
    matched = zero = unmatched_a = unmatched_b = 0
    buckets: Dict[int, int] = {}
    max_skew = 0
    for lane in set(lanes_a) | set(lanes_b):
        cycles_a = lanes_a.get(lane, [])
        cycles_b = lanes_b.get(lane, [])
        paired = min(len(cycles_a), len(cycles_b))
        unmatched_a += len(cycles_a) - paired
        unmatched_b += len(cycles_b) - paired
        for position in range(paired):
            matched += 1
            skew = cycles_b[position] - cycles_a[position]
            if skew == 0:
                zero += 1
                continue
            magnitude = abs(skew)
            if magnitude > abs(max_skew):
                max_skew = skew
            buckets[magnitude.bit_length()] = \
                buckets.get(magnitude.bit_length(), 0) + 1
    bucket_rows = [[1 << (bucket - 1), (1 << bucket) - 1, count]
                   for bucket, count in sorted(buckets.items())]
    return {"matched": matched, "zero_skew": zero,
            "buckets": bucket_rows, "max_skew": max_skew,
            "unmatched_a": unmatched_a, "unmatched_b": unmatched_b}


def diff_recordings(a: Recording, b: Recording) -> Dict[str, object]:
    """The structured diff report dict (JSON-ready)."""
    identical = a.core_equal(b)
    events_a = list(a.events())
    events_b = list(b.events())
    cycles_a, cycles_b = a.cycles, b.cycles
    cycles: Optional[Dict[str, object]] = None
    if cycles_a is not None and cycles_b is not None:
        per_cpu_a = a.payload["result"]["per_cpu_cycles"]
        per_cpu_b = b.payload["result"]["per_cpu_cycles"]
        per_cpu_delta = [right - left for left, right
                         in zip(per_cpu_a, per_cpu_b)]
        cycles = {"a": cycles_a, "b": cycles_b,
                  "delta": cycles_b - cycles_a,
                  "per_cpu_delta": per_cpu_delta}
    return {
        "kind": "repro-recording-diff",
        "schema_version": DIFF_SCHEMA_VERSION,
        "identical": identical,
        "workload": dict(a.workload),
        "perturbation": b.perturbation or a.perturbation,
        "fingerprint_a": a.fingerprint,
        "fingerprint_b": b.fingerprint,
        "halted": {"a": a.halted, "b": b.halted},
        "events": {"total_a": len(events_a),
                   "total_b": len(events_b)},
        "first_divergence": None if identical
        else _first_divergence(events_a, events_b),
        "cycles": cycles,
        "phases": _phase_deltas(a, b),
        "counters": {} if identical else _counter_deltas(a, b),
        "histogram": _skew_histogram(events_a, events_b),
    }


def divergence_summary(a: Recording, b: Recording) -> Dict[str, object]:
    """The short form of :func:`diff_recordings` a fault campaign's
    entries carry (its ``divergence``): identity, how many counters
    changed, the cycle delta and the first divergent event. It skips
    the phase and skew passes and stops reading the event streams at
    the first divergence."""
    identical = a.core_equal(b)
    summary: Dict[str, object] = {
        "identical": identical,
        "counters_changed": 0 if identical
        else len(_counter_deltas(a, b)),
        "cycles_delta": None if a.cycles is None or b.cycles is None
        else b.cycles - a.cycles,
    }
    first = None if identical \
        else _first_divergence(a.events(), b.events())
    if first is not None:
        side = first["b"] or first["a"]
        summary["first_divergence"] = {
            "index": first["index"],
            "event": side["name"],
            "category": side["category"],
            "cycle": side["cycle"],
            "cpu": side["cpu"],
        }
    return summary


def _event_line(side: Dict[str, object]) -> str:
    if side is None:
        return "(stream ended)"
    args = ", ".join(f"{name}={value}" for name, value
                     in sorted(side["args"].items()))
    return (f"{side['name']} [{side['category']}] cycle "
            f"{side['cycle']:,} cpu{side['cpu']}"
            + (f" ({args})" if args else ""))


def format_diff(report: Dict[str, object]) -> str:
    """Human-readable rendering of a diff report (CLI output)."""
    from ..analysis.report import format_table
    workload = report["workload"]
    perturbation = report["perturbation"]
    label = "none (determinism check)" if perturbation is None else \
        f"{perturbation['name']}={perturbation['value']}"
    sections: List[str] = []
    head = [
        ["workload", f"{workload['name']} ({workload['cpus']}P, "
                     f"scale {workload['scale']:g}, "
                     f"seed {workload['seed']})"],
        ["perturbation", label],
        ["identical", "yes" if report["identical"] else "NO"],
        ["events", f"{report['events']['total_a']:,} vs "
                   f"{report['events']['total_b']:,}"],
    ]
    halted = report["halted"]
    if halted["a"] or halted["b"]:
        head.append(["halted", f"a: {halted['a'] or '-'} / "
                               f"b: {halted['b'] or '-'}"])
    cycles = report["cycles"]
    if cycles is not None:
        head.append(["cycles", f"{cycles['a']:,} -> {cycles['b']:,} "
                               f"({cycles['delta']:+,})"])
    sections.append(format_table("Recording diff",
                                 ["field", "value"], head))

    if report["identical"]:
        return sections[0] + "\n\nrecordings are identical."

    divergence = report["first_divergence"]
    if divergence is not None:
        rows = [["index", f"{divergence['index']:,}"],
                ["a", _event_line(divergence["a"])],
                ["b", _event_line(divergence["b"])]]
        sections.append(format_table("First divergence",
                                     ["side", "event"], rows))

    phases = report["phases"]
    if phases["rows"]:
        rows = [[row["ordinal"], f"{row['cycle_a']:,}",
                 f"{row['cycle_b']:,}", f"{row['skew']:+,}",
                 f"{row['segment_delta']:+,}"]
                for row in phases["rows"]]
        title = (f"Phase deltas at auth checkpoints "
                 f"({phases['diverged']}/{phases['aligned']} "
                 "boundaries diverged"
                 + (f"; {phases['truncated']} rows truncated"
                    if phases["truncated"] else "") + ")")
        sections.append(format_table(
            title, ["phase", "cycle a", "cycle b", "skew",
                    "segment delta"], rows))

    counters = report["counters"]
    if counters:
        rows = [[name, f"{entry['a']:,}", f"{entry['b']:,}",
                 f"{entry['delta']:+,}"]
                for name, entry in counters.items()]
        sections.append(format_table(
            f"Counter deltas ({len(counters)} changed)",
            ["counter", "a", "b", "delta"], rows))

    histogram = report["histogram"]
    rows = [["0 (aligned)", "-", f"{histogram['zero_skew']:,}"]]
    rows += [[f"{low:,}", f"{high:,}", f"{count:,}"]
             for low, high, count in histogram["buckets"]]
    if histogram["unmatched_a"] or histogram["unmatched_b"]:
        rows.append(["unmatched", "-",
                     f"a:{histogram['unmatched_a']:,} "
                     f"b:{histogram['unmatched_b']:,}"])
    sections.append(format_table(
        f"Cycle-skew histogram ({histogram['matched']:,} events "
        f"paired per CPU/kind lane; max skew "
        f"{histogram['max_skew']:+,})",
        ["|skew| low", "|skew| high", "events"], rows))
    return "\n\n".join(sections)
