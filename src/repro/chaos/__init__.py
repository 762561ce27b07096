"""Deterministic chaos harness for the serve plane (``repro chaos``).

SENSS's claim is correctness under an active adversary on the bus;
this package makes the *service* above the simulator earn the same
kind of claim. From a single seed it builds a :class:`ChaosPlan` —
which faults hit which sweep points — and drives a real ``repro
serve`` subprocess through them:

- ``worker-kill`` — a worker process SIGKILLs itself mid-point
  (exercises BrokenProcessPool recovery + pool respawn + retry);
- ``point-hang`` — a point sleeps past the server's
  ``--point-timeout`` (exercises the per-point deadline timer +
  kill-and-respawn);
- ``cache-corrupt`` — a result-cache entry is garbled on disk
  (exercises checksum quarantine + re-execution);
- ``server-restart`` — the server is SIGKILLed mid-job and
  relaunched with ``--resume`` (exercises the job journal);
- ``client-drop`` — the NDJSON progress stream is severed mid-job
  (exercises the client's resumable stream).

Worker-side faults are injected through one env-gated seam in
:class:`repro.sim.sweep.PointRunner` (``REPRO_CHAOS_PLAN`` names
the plan file; a marker directory makes each fault fire exactly
once), so production runs pay a single dict lookup.

The invariant the harness asserts (docs/resilience.md): **every
completed job's results — and recordings, byte-for-byte — are
identical to a clean in-process** :func:`~repro.sim.sweep.run_sweep`.
Faults may cost retries and restarts; they may never change what the
service computes.
"""

from .harness import ChaosReport, run_chaos
from .plan import FAULT_KINDS, ChaosPlan, build_plan

__all__ = [
    "FAULT_KINDS",
    "ChaosPlan",
    "ChaosReport",
    "build_plan",
    "run_chaos",
]
