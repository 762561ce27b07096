"""Worker-side fault injection: the receiving end of a chaos plan.

:func:`apply_worker_faults` is called by
:class:`repro.sim.sweep.PointRunner` — the one runner of sweep, chain,
recorded and served points — at the top of every point execution,
but only when the
``REPRO_CHAOS_PLAN`` environment variable names a plan file — the
production path pays one dict lookup and never imports this module.

Each fault fires **exactly once** across all workers and all server
restarts: before acting, the hook claims a marker file
(``O_CREAT | O_EXCL`` — atomic on every platform we run on) named
after the fault in the plan's marker directory. Whichever worker
process claims it performs the fault; every later execution of the
same point runs clean. That is what makes chaos runs terminate: the
retry of a killed point succeeds, the resumed job's points run to
completion.

Faults:

- ``worker-kill`` — ``SIGKILL`` to our own process, mid-point. The
  pool sees a vanished worker (``BrokenProcessPool``); the server
  must respawn the pool and retry the point.
- ``point-hang`` — sleep far past the server's ``--point-timeout``.
  Its deadline timer must declare the point dead, kill the pool and
  retry. (The sleeping process is killed with the pool, so the sleep
  never actually runs to completion.)
"""

from __future__ import annotations

import errno
import os
import signal
import time
from typing import Optional

from .plan import ChaosPlan

#: cached (path, plan) so a warm worker parses the plan file once
_CACHED: Optional[tuple] = None


def _load_plan() -> Optional[ChaosPlan]:
    global _CACHED
    path = os.environ.get("REPRO_CHAOS_PLAN")
    if not path:
        return None
    if _CACHED is not None and _CACHED[0] == path:
        return _CACHED[1]
    try:
        plan = ChaosPlan.load(path)
    except (OSError, ValueError, KeyError):
        return None  # plan vanished or malformed: run clean
    _CACHED = (path, plan)
    return plan


def _claim(marker_dir: str, name: str) -> bool:
    """Atomically claim a fire-once marker; True when we won it."""
    try:
        os.makedirs(marker_dir, exist_ok=True)
        handle = os.open(os.path.join(marker_dir, name),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError as exc:
        if exc.errno == errno.EEXIST:
            return False  # someone (possibly our past life) fired it
        return False  # unclaimable marker dir: fail safe, run clean
    os.write(handle, str(os.getpid()).encode())
    os.close(handle)
    return True


def apply_worker_faults(point) -> None:
    """Fire any worker-side fault targeting this point, at most once
    per fault across the whole chaos run."""
    plan = _load_plan()
    if plan is None:
        return
    from ..sim.sweep import point_key
    key = point_key(point)
    for fault in plan.worker_faults():
        if fault.get("point") != key:
            continue
        kind = str(fault["kind"])
        if not _claim(plan.marker_dir, f"{kind}-{key}"):
            continue
        if kind == "worker-kill":
            # Die the way an OOM kill looks to the pool: no cleanup,
            # no exception, the process is simply gone.
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "point-hang":
            # Outlive any sane deadline; the supervisor's pool
            # restart kills this process long before it wakes.
            time.sleep(float(fault.get("hang_s", 120.0)))
