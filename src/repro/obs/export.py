"""Export a traced run as Chrome/Perfetto trace-event JSON.

The output is the Trace Event Format's "JSON object" flavour —
``{"traceEvents": [...], ...}`` — loadable directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``. Timestamps (``ts``)
and durations (``dur``) are **simulated CPU cycles** presented in the
format's microsecond field: one cycle renders as one microsecond, so
the timeline shape is exact and only the absolute unit label differs
(documented in docs/tracing.md).

Track layout: one process (pid 0, named after the workload) with one
thread per simulated CPU, so miss spans, bus grants and security
events line up per processor. Span events use phase ``"X"`` (complete
events); point-in-time events use phase ``"i"`` (instants,
thread-scoped).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults.plan import FaultKind
from ..faults.scoreboard import MECHANISMS
from .ring import EventKind, TraceEvent
from .tracer import (HASH_CLIPPED, HASH_FETCH, HASH_L2_HIT, HASH_ROOT,
                     HASH_WRITE, TX_TYPE_BY_INDEX, Tracer)

#: schema version stamped into ``otherData`` (bump with any shape change)
TRACE_SCHEMA_VERSION = 1

_VERIFY_OUTCOMES = {HASH_ROOT: "root", HASH_L2_HIT: "l2_hit",
                    HASH_FETCH: "fetch"}
_UPDATE_OUTCOMES = {HASH_ROOT: "root", HASH_WRITE: "write",
                    HASH_CLIPPED: "clipped"}
#: index -> name tables for the fault event payload words
_FAULT_KINDS = list(FaultKind.ALL)
_MECHANISMS = list(MECHANISMS)


def _span(name: str, cat: str, event: TraceEvent,
          args: Dict[str, object]) -> Dict[str, object]:
    return {"name": name, "cat": cat, "ph": "X", "ts": event.cycle,
            "dur": event.dur, "pid": 0, "tid": event.cpu, "args": args}


def _instant(name: str, cat: str, event: TraceEvent,
             args: Dict[str, object]) -> Dict[str, object]:
    return {"name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": event.cycle, "pid": 0, "tid": event.cpu,
            "args": args}


def _convert(event: TraceEvent) -> Dict[str, object]:
    kind = event.kind
    if kind == EventKind.BUS_TX:
        tx_type = TX_TYPE_BY_INDEX[event.a1]
        return _span(tx_type.value, "bus", event,
                     {"address": event.a0,
                      "cache_to_cache": bool(event.a2)})
    if kind == EventKind.MISS:
        supplier_word = event.a2 & 0xFF
        return _span("miss", "mem", event,
                     {"address": event.a0,
                      "write": bool(event.a2 >> 9 & 1),
                      "dirty_intervention": bool(event.a2 >> 8 & 1),
                      "supplier": ("memory" if supplier_word == 0
                                   else f"cpu{supplier_word - 1}"),
                      "invalidated": event.a1})
    if kind == EventKind.UPGRADE:
        return _span("upgrade", "mem", event,
                     {"address": event.a0, "invalidated": event.a1})
    if kind == EventKind.MASK_STALL:
        return _span("mask_stall", "senss", event,
                     {"group": event.a0, "wait_cycles": event.a1})
    if kind == EventKind.AUTH_MAC:
        args = {"group": event.a0}
        if event.a1 >= 0:
            args["gap_cycles"] = event.a1
        return _instant("auth_checkpoint", "senss", event, args)
    if kind == EventKind.PAD_HIT:
        args = {"address": event.a0}
        if event.a1 >= 0:
            args["reuse_distance"] = event.a1
        return _instant("pad_cache_hit", "memprotect", event, args)
    if kind == EventKind.PAD_MISS:
        return _instant("pad_cache_miss", "memprotect", event,
                        {"address": event.a0})
    if kind == EventKind.HASH_VERIFY:
        return _instant("hash_verify", "memprotect", event,
                        {"address": event.a0,
                         "outcome": _VERIFY_OUTCOMES[event.a1]})
    if kind == EventKind.HASH_UPDATE:
        return _instant("hash_update", "memprotect", event,
                        {"address": event.a0,
                         "outcome": _UPDATE_OUTCOMES[event.a1]})
    if kind == EventKind.RUN_SPAN:
        return _span("execute", "run", event, {})
    if kind == EventKind.FAULT_INJECT:
        args = {"kind": _FAULT_KINDS[event.a0]}
        if event.a1 >= 0:
            args["group"] = event.a1
        return _instant("fault_inject", "faults", event, args)
    if kind == EventKind.FAULT_DETECT:
        return _instant("fault_detect", "faults", event,
                        {"kind": _FAULT_KINDS[event.a0],
                         "mechanism": _MECHANISMS[event.a1],
                         "latency_cycles": event.a2})
    raise ValueError(f"unknown event kind {kind}")


def _metadata(workload: Optional[str],
              cpus) -> List[Dict[str, object]]:
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": f"senss-sim:{workload or 'run'}"}}]
    for cpu in sorted(cpus):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": cpu, "args": {"name": f"cpu{cpu}"}})
    return events


def to_chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """The full trace-event JSON object for a traced run."""
    from ..sim.sweep import ENGINE_VERSION
    converted = [_convert(event) for event in tracer.log]
    cpus = {event["tid"] for event in converted}
    payload = {
        "traceEvents": _metadata(tracer.workload_name, cpus) + converted,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": TRACE_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "workload": tracer.workload_name or "",
            "time_unit": "cpu_cycles_as_us",
            "events_recorded": tracer.log.total_recorded,
            "events_dropped": tracer.log.dropped,
        },
    }
    return payload
