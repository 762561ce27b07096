"""Job wire format: requests, points and results as plain JSON.

A job request is::

    {"tenant": "alice",            # optional, default "default"
     "weight": 2,                  # optional fair-share weight, >= 1
     "record": true,               # optional: also keep a per-point
                                   # deterministic recording (needs
                                   # the server's --record-dir)
     "points": [                   # required, non-empty
        {"workload": "fft",        # required registry name
         "scale": 0.1,             # optional, default 1.0
         "seed": 0,                # optional, default 0
         "config": {...}}]}        # optional SystemConfig dict
                                   # (partial: omitted knobs default)

Config dicts are the :func:`repro.config.config_to_dict` shape and
may be partial — :func:`repro.config.config_from_dict` fills omitted
fields with defaults and rejects unknown names, so a typoed knob is a
400, never a silently different machine. Results travel through
:func:`~repro.smp.metrics.result_to_dict`, the codec
:class:`~repro.sim.sweep.ResultCache` stores (minus the checksum), so
a streamed result round-trips losslessly into a
:class:`~repro.smp.metrics.SimulationResult`; this module re-exports
the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import SystemConfig, config_from_dict, config_to_dict
from ..errors import ConfigError, ServeError
from ..sim.sweep import SweepPoint
from ..smp.metrics import result_from_dict, result_to_dict  # noqa: F401

#: tenant names are path/log-safe tokens
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")
MAX_TENANT_LENGTH = 64
MAX_WEIGHT = 64
#: hard per-request size guard; the per-tenant backpressure budget
#: (Scheduler.max_queued_per_tenant) is the real admission control.
MAX_POINTS_PER_JOB = 4096


@dataclass(frozen=True)
class JobSpec:
    """A validated job submission: who, how urgent, what to run."""

    tenant: str
    weight: int
    points: Tuple[SweepPoint, ...]
    record: bool = False


def point_to_dict(point: SweepPoint) -> Dict[str, object]:
    return {"workload": point.workload,
            "scale": point.scale,
            "seed": point.seed,
            "config": config_to_dict(point.config)}


def point_from_dict(payload) -> SweepPoint:
    if not isinstance(payload, dict):
        raise ServeError(
            f"each point must be an object, got {type(payload).__name__}")
    unknown = set(payload) - {"workload", "scale", "seed", "config"}
    if unknown:
        raise ServeError(f"point has unknown fields {sorted(unknown)}")
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ServeError("point needs a workload name")
    scale = payload.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
            or not scale > 0:
        raise ServeError(f"point scale must be > 0, got {scale!r}")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ServeError(f"point seed must be an integer, got {seed!r}")
    config_payload = payload.get("config", {})
    try:
        config = config_from_dict(config_payload) \
            if config_payload else SystemConfig()
    except ConfigError as exc:
        raise ServeError(str(exc)) from None
    return SweepPoint(workload=workload, config=config,
                      scale=float(scale), seed=seed)


def parse_job_request(payload) -> JobSpec:
    """Validate a submission body into a :class:`JobSpec` (400s on
    shape errors — the scheduler only ever sees well-formed jobs)."""
    if not isinstance(payload, dict):
        raise ServeError("job request must be a JSON object")
    unknown = set(payload) - {"tenant", "weight", "points", "record"}
    if unknown:
        raise ServeError(f"job has unknown fields {sorted(unknown)}")
    record = payload.get("record", False)
    if not isinstance(record, bool):
        raise ServeError(
            f"record must be a boolean, got {record!r}")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant \
            or len(tenant) > MAX_TENANT_LENGTH \
            or not set(tenant) <= _TENANT_CHARS:
        raise ServeError(
            "tenant must be 1-64 chars of [A-Za-z0-9._-], "
            f"got {tenant!r}")
    weight = payload.get("weight", 1)
    if not isinstance(weight, int) or isinstance(weight, bool) \
            or not 1 <= weight <= MAX_WEIGHT:
        raise ServeError(
            f"weight must be an integer in 1..{MAX_WEIGHT}, "
            f"got {weight!r}")
    raw_points = payload.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ServeError("job needs a non-empty points list")
    if len(raw_points) > MAX_POINTS_PER_JOB:
        raise ServeError(
            f"job exceeds {MAX_POINTS_PER_JOB} points per request")
    points = tuple(point_from_dict(raw) for raw in raw_points)
    return JobSpec(tenant=tenant, weight=weight, points=points,
                   record=record)


def job_request_dict(points, tenant: str = "default",
                     weight: int = 1,
                     record: bool = False) -> Dict[str, object]:
    """Client-side helper: SweepPoints -> submission body."""
    body: Dict[str, object] = {
        "tenant": tenant, "weight": weight,
        "points": [point_to_dict(point) for point in points]}
    if record:
        body["record"] = True
    return body
