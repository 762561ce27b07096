"""The trace-event schema and its validator.

:data:`TRACE_EVENT_SCHEMA` is the machine-readable contract for what
:func:`repro.obs.export.to_chrome_trace` emits — per event name: its
category, phase, and required ``args`` fields with expected types.
:func:`validate_chrome_trace` checks a payload against it (hand-rolled
so the repo needs no jsonschema dependency); the CLI ``trace`` command
validates every trace before writing it, CI validates the smoke
trace, and tests/obs/test_schema.py asserts every emitted kind
conforms.

Shape of a valid payload::

    {"traceEvents": [event, ...],
     "otherData": {"schema_version": 1, ...}}

where every event carries ``name``/``cat``/``ph``/``ts``/``pid``/
``tid``; ``ph == "X"`` adds a non-negative ``dur``; ``ph == "i"``
adds scope ``s``; ``ph == "C"`` is a counter sample (all-integer
``args`` render as a Perfetto counter track); ``ph == "M"`` is track
metadata.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import TraceError

#: event-name contract: category, phase, and required args typing
TRACE_EVENT_SCHEMA: Dict[str, Dict[str, object]] = {
    # bus transactions: one span per granted transaction, named by type
    "BusRd": {"cat": "bus", "ph": "X",
              "args": {"address": int, "cache_to_cache": bool}},
    "BusRdX": {"cat": "bus", "ph": "X",
               "args": {"address": int, "cache_to_cache": bool}},
    "BusUpgr": {"cat": "bus", "ph": "X",
                "args": {"address": int, "cache_to_cache": bool}},
    "WB": {"cat": "bus", "ph": "X",
           "args": {"address": int, "cache_to_cache": bool}},
    "Auth00": {"cat": "bus", "ph": "X",
               "args": {"address": int, "cache_to_cache": bool}},
    "PadInv01": {"cat": "bus", "ph": "X",
                 "args": {"address": int, "cache_to_cache": bool}},
    "PadReq10": {"cat": "bus", "ph": "X",
                 "args": {"address": int, "cache_to_cache": bool}},
    "HashFetch": {"cat": "bus", "ph": "X",
                  "args": {"address": int, "cache_to_cache": bool}},
    "HashWB": {"cat": "bus", "ph": "X",
               "args": {"address": int, "cache_to_cache": bool}},
    # memory-system spans
    "miss": {"cat": "mem", "ph": "X",
             "args": {"address": int, "write": bool, "supplier": str,
                      "dirty_intervention": bool, "invalidated": int}},
    "upgrade": {"cat": "mem", "ph": "X",
                "args": {"address": int, "invalidated": int}},
    # SENSS security events
    "mask_stall": {"cat": "senss", "ph": "X",
                   "args": {"group": int, "wait_cycles": int}},
    "auth_checkpoint": {"cat": "senss", "ph": "i",
                        "args": {"group": int}},
    # memory-protection events
    "pad_cache_hit": {"cat": "memprotect", "ph": "i",
                      "args": {"address": int}},
    "pad_cache_miss": {"cat": "memprotect", "ph": "i",
                       "args": {"address": int}},
    "hash_verify": {"cat": "memprotect", "ph": "i",
                    "args": {"address": int, "outcome": str}},
    "hash_update": {"cat": "memprotect", "ph": "i",
                    "args": {"address": int, "outcome": str}},
    # engine span per CPU
    "execute": {"cat": "run", "ph": "X", "args": {}},
    # fault-injection events (repro.faults)
    "fault_inject": {"cat": "faults", "ph": "i",
                     "args": {"kind": str}},
    "fault_detect": {"cat": "faults", "ph": "i",
                     "args": {"kind": str, "mechanism": str,
                              "latency_cycles": int}},
    # sweep-service job lifecycle (repro.serve): the NDJSON stream a
    # server emits per job reuses this schema as its wire format, so
    # a captured stream loads directly in Perfetto. ts is µs since
    # server start, pid the job serial, tid the point index.
    "job_accepted": {"cat": "serve", "ph": "i",
                     "args": {"job": str, "tenant": str,
                              "points": int}},
    "point_done": {"cat": "serve", "ph": "X",
                   "args": {"index": int, "cycles": int,
                            "source": str}},
    "point_failed": {"cat": "serve", "ph": "i",
                     "args": {"index": int, "error": str}},
    # resilience plane (docs/resilience.md): a point re-entering the
    # queue after a failure, and a journalled job re-admitted by
    # `repro serve --resume`
    "point_retry": {"cat": "serve", "ph": "i",
                    "args": {"index": int, "attempt": int,
                             "error": str}},
    "job_resumed": {"cat": "serve", "ph": "i",
                    "args": {"job": str, "points": int}},
    "job_done": {"cat": "serve", "ph": "i",
                 "args": {"job": str, "state": str}},
    # server-wide counter sample (Chrome counter track, ph "C"),
    # emitted right before each job_done so Perfetto renders the
    # serve.* counters as a track alongside job lifecycles
    "serve.counters": {"cat": "serve", "ph": "C",
                       "args": {"queue_depth": int, "inflight": int,
                                "executed": int, "cache_hits": int,
                                "deduped": int, "failed": int}},
}

#: names allowed for phase-"M" track metadata events
METADATA_NAMES = ("process_name", "thread_name")

#: enumerated values for string-typed args
ARG_ENUMS = {
    ("hash_verify", "outcome"): ("root", "l2_hit", "fetch"),
    ("hash_update", "outcome"): ("root", "write", "clipped"),
    ("fault_inject", "kind"): ("drop", "reorder", "spoof", "bit-flip",
                               "mask-desync", "pad-corrupt",
                               "seq-corrupt", "merkle-flip"),
    ("fault_detect", "kind"): ("drop", "reorder", "spoof", "bit-flip",
                               "mask-desync", "pad-corrupt",
                               "seq-corrupt", "merkle-flip"),
    ("fault_detect", "mechanism"): ("mac_interval", "spoof_self",
                                    "pad_coherence", "merkle_verify"),
    ("point_done", "source"): ("executed", "cache", "dedup"),
    ("job_done", "state"): ("done", "failed", "cancelled"),
}


def _fail(index: int, message: str) -> None:
    raise TraceError(f"trace event [{index}]: {message}")


def _check_int(index: int, event: dict, field: str,
               minimum: int = 0) -> None:
    value = event.get(field)
    # bool is an int subclass; reject it for count/time fields.
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(index, f"{field!r} must be an integer, got {value!r}")
    if value < minimum:
        _fail(index, f"{field!r} must be >= {minimum}, got {value}")


def validate_event(index: int, event) -> None:
    """Validate one trace event dict; raises TraceError on violation."""
    if not isinstance(event, dict):
        _fail(index, f"not an object: {event!r}")
    name = event.get("name")
    if not isinstance(name, str) or not name:
        _fail(index, "missing event name")
    phase = event.get("ph")
    if phase == "M":
        if name not in METADATA_NAMES:
            _fail(index, f"unknown metadata event {name!r}")
        if not isinstance(event.get("args", {}).get("name"), str):
            _fail(index, "metadata event needs a string args.name")
        return
    contract = TRACE_EVENT_SCHEMA.get(name)
    if contract is None:
        _fail(index, f"unknown event name {name!r}")
    if event.get("cat") != contract["cat"]:
        _fail(index, f"{name!r} must have cat {contract['cat']!r}, "
                     f"got {event.get('cat')!r}")
    if phase != contract["ph"]:
        _fail(index, f"{name!r} must have ph {contract['ph']!r}, "
                     f"got {phase!r}")
    _check_int(index, event, "ts")
    _check_int(index, event, "pid")
    _check_int(index, event, "tid")
    if phase == "X":
        _check_int(index, event, "dur")
    elif phase == "i":
        if event.get("s") not in ("t", "p", "g"):
            _fail(index, f"instant {name!r} needs scope s in t/p/g")
    args = event.get("args")
    if not isinstance(args, dict):
        _fail(index, f"{name!r} needs an args object")
    for field, expected in contract["args"].items():
        if field not in args:
            _fail(index, f"{name!r} missing required arg {field!r}")
        value = args[field]
        if expected is bool:
            if not isinstance(value, bool):
                _fail(index, f"{name!r} arg {field!r} must be a bool")
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                _fail(index, f"{name!r} arg {field!r} must be an int")
        elif expected is str:
            if not isinstance(value, str):
                _fail(index, f"{name!r} arg {field!r} must be a string")
            allowed = ARG_ENUMS.get((name, field))
            if allowed is not None and value not in allowed:
                _fail(index, f"{name!r} arg {field!r} must be one of "
                             f"{allowed}, got {value!r}")


def validate_chrome_trace(payload) -> int:
    """Validate a full trace payload; returns the event count.

    Raises :class:`~repro.errors.TraceError` naming the first
    offending event and field.
    """
    if not isinstance(payload, dict):
        raise TraceError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("trace payload needs a traceEvents list")
    other = payload.get("otherData")
    if not isinstance(other, dict) or \
            not isinstance(other.get("schema_version"), int):
        raise TraceError(
            "trace payload needs otherData.schema_version")
    for index, event in enumerate(events):
        validate_event(index, event)
    return len(events)


def event_names(payload) -> List[str]:
    """Distinct non-metadata event names present, sorted."""
    return sorted({event["name"] for event in payload["traceEvents"]
                   if event.get("ph") != "M"})
