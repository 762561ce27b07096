"""Observability for the SENSS simulator: tracing, metrics, reports.

Three pieces, usable independently:

- :class:`Tracer` (+ :class:`EventLog`) — a columnar event tracer,
  bounded to its newest events or lossless, that the bus, coherence,
  SENSS and memory-protection layers emit into via optional observer
  hooks; exports Chrome/Perfetto trace-event JSON
  (:func:`to_chrome_trace`) validated against
  :data:`~repro.obs.schema.TRACE_EVENT_SCHEMA`.
- :class:`~repro.sim.stats.Histogram` metrics — miss latency,
  mask-wait cycles, pad-cache reuse distance, authentication gaps —
  registered on the system's :class:`~repro.sim.stats.StatsRegistry`
  when a tracer attaches.
- :class:`PhaseTimer` + :func:`build_report` — wall-clock phase
  accounting and the mergeable JSON run reports behind
  ``python -m repro report``.
- :func:`record_run` / :func:`replay_recording` /
  :func:`diff_recordings` — deterministic run recordings, one-knob
  perturbation replays and structured divergence diffs
  (docs/record_replay.md) behind ``python -m repro
  record|replay|diff``.

The defining constraint (DESIGN.md §6d): a detached tracer costs one
``is not None`` test per slow-path hook, and attaching one never
changes simulated timing — traced runs take the same slow-path route
(one reused scratch transaction) and stay bit-identical.

Quick start::

    from repro import build_secure_system, e6000_config, generate
    from repro.obs import Tracer, to_chrome_trace

    system = build_secure_system(e6000_config(num_processors=4))
    tracer = Tracer().attach(system)
    system.run(generate("fft", 4, scale=0.1))
    payload = to_chrome_trace(tracer)   # load in ui.perfetto.dev
"""

from .diff import DIFF_SCHEMA_VERSION, diff_recordings, format_diff
from .export import TRACE_SCHEMA_VERSION, to_chrome_trace
from .recording import (RECORDING_SCHEMA_VERSION, Recorder, Recording,
                        record_run)
from .replay import (PERTURBATIONS, apply_perturbation,
                     parse_perturbation, replay_recording)
from .report import REPORT_SCHEMA_VERSION, build_report, format_report
from .ring import EventKind, EventLog, TraceEvent
from .schema import (TRACE_EVENT_SCHEMA, event_names,
                     validate_chrome_trace)
from .timers import PhaseTimer
from .tracer import TRACE_CATEGORIES, Tracer, parse_categories

__all__ = [
    "DIFF_SCHEMA_VERSION",
    "EventKind",
    "EventLog",
    "PERTURBATIONS",
    "PhaseTimer",
    "RECORDING_SCHEMA_VERSION",
    "REPORT_SCHEMA_VERSION",
    "Recorder",
    "Recording",
    "TRACE_CATEGORIES",
    "TRACE_EVENT_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "apply_perturbation",
    "build_report",
    "diff_recordings",
    "event_names",
    "format_diff",
    "format_report",
    "parse_categories",
    "parse_perturbation",
    "record_run",
    "replay_recording",
    "to_chrome_trace",
    "validate_chrome_trace",
]
