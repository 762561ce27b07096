"""Replay a recording with exactly one perturbed parameter.

The perturbation workflow (docs/record_replay.md): record a run, then
:func:`replay_recording` re-runs the *same* workload coordinates with
exactly one knob changed and returns a fresh
:class:`~repro.obs.recording.Recording` stamped with the perturbation,
ready for :func:`repro.obs.diff.diff_recordings`. One knob, not
several — a diff against a multi-knob replay cannot attribute the
first divergence to anything.

Supported knobs (``NAME=VALUE`` strings on the CLI):

=================  ====================================================
``auth_interval``  SENSS MAC broadcast interval (bus transactions)
``masks``          mask-array size; ``0``/``none`` = perfect supply
``aes_latency``    crypto-engine OTP/pad latency in cycles
``hash_latency``   crypto-engine hashing latency in cycles
``seed``           workload generator seed
``scale``          workload scale factor
``fault``          inject a fault plan: ``kind`` or ``kind:trigger``
                   (kinds from repro.faults; replayed under the
                   rekey-replay recovery policy so the run completes
                   and the post-detection timeline is diffable)
=================  ====================================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from ..errors import ConfigError
from .recording import Recording, record_run

#: perturbable knob names, CLI-visible
PERTURBATIONS = ("auth_interval", "masks", "aes_latency",
                 "hash_latency", "seed", "scale", "fault")

#: recovery policy fault replays run under (completes the run)
FAULT_REPLAY_POLICY = "rekey-replay"


def parse_perturbation(spec: str) -> Tuple[str, str]:
    """Split a ``name=value`` CLI spec; raises ConfigError on junk."""
    name, sep, value = spec.partition("=")
    name, value = name.strip(), value.strip()
    if not sep or not name or not value:
        raise ConfigError(
            f"perturbation must look like name=value, got {spec!r}")
    if name not in PERTURBATIONS:
        raise ConfigError(
            f"unknown perturbation {name!r}; choose from "
            f"{PERTURBATIONS}")
    return name, value


def _as_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"perturbation {name} needs an integer, got {value!r}"
        ) from None


def _fault_plan(value: str, num_cpus: int):
    """``kind`` or ``kind:trigger`` -> a one-fault plan."""
    from ..faults.campaign import DEFAULT_TRIGGER, default_spec
    from ..faults.plan import FaultKind, FaultPlan
    kind, sep, trigger_text = value.partition(":")
    if kind not in FaultKind.ALL:
        raise ConfigError(
            f"unknown fault kind {kind!r}; choose from "
            f"{FaultKind.ALL}")
    trigger = _as_int("fault", trigger_text) if sep \
        else DEFAULT_TRIGGER[kind]
    return FaultPlan(specs=(default_spec(kind, num_cpus,
                                         trigger=trigger),))


def apply_perturbation(point, name: str, value: str):
    """Return the point with one knob changed; ``fault`` gives it a
    fault plan under :data:`FAULT_REPLAY_POLICY`."""
    config = point.config
    if name == "auth_interval":
        return replace(point, config=config.with_auth_interval(
            _as_int(name, value)))
    if name == "masks":
        masks = None if value.lower() in ("none", "perfect", "0") \
            else _as_int(name, value)
        return replace(point, config=config.with_masks(masks))
    if name in ("aes_latency", "hash_latency"):
        crypto = replace(config.crypto, **{name: _as_int(name, value)})
        return replace(point, config=replace(config, crypto=crypto))
    if name == "seed":
        return replace(point, seed=_as_int(name, value))
    if name == "scale":
        try:
            scale = float(value)
        except ValueError:
            raise ConfigError(
                f"perturbation scale needs a number, got {value!r}"
            ) from None
        return replace(point, scale=scale)
    if name == "fault":
        return replace(point,
                       plan=_fault_plan(value, config.num_processors),
                       policy=FAULT_REPLAY_POLICY)
    raise ConfigError(f"unknown perturbation {name!r}")


def replay_recording(recording: Recording,
                     perturb: Optional[str] = None,
                     snapshot_every: Optional[int] = None
                     ) -> Recording:
    """Re-run a recording, optionally with one perturbed knob.

    With ``perturb=None`` the replay is a pure determinism check: its
    recording must diff empty against the source (pinned by
    tests/obs/test_replay_diff.py), a faulted source included — the
    recording's point carries its fault plan and policy. The returned
    recording carries the perturbation label so a diff report can name
    what changed.
    """
    point = recording.point()
    perturbation = None
    if perturb is not None:
        name, value = parse_perturbation(perturb)
        point = apply_perturbation(point, name, value)
        perturbation = {"name": name, "value": value}
    if snapshot_every is None:
        snapshot_every = recording.snapshot_every
    return record_run(point, snapshot_every=snapshot_every,
                      perturbation=perturbation)
