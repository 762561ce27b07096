"""Name-based workload registry used by benches and the CLI examples.

:func:`generate` serves every scale of a (program, CPUs, seed) from one
memoized :class:`~repro.workloads.splash2.Family`: a scale sweep, a
checkpoint chain or a re-fork pays for generation once, as far as its
largest scale, and every call returns its own copy of the columns.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Tuple

from ..errors import TraceError
from ..smp.trace import Workload
from .splash2 import PROGRAMS, Family, barnes, fft, lu, ocean, radix

SPLASH2_NAMES = ["fft", "radix", "barnes", "lu", "ocean"]

WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "fft": fft,
    "radix": radix,
    "barnes": barnes,
    "lu": lu,
    "ocean": ocean,
}


#: process-wide memo of trace families, keyed (name, num_cpus, seed),
#: plus the unit count for fft, whose traces are not prefix-stable.
#: Trace synthesis is pure (a seeded RNG walk) but costs more than
#: simulating small points, so repeated generation — every sweep point,
#: every serve submission, every checkpoint-chain fork — would
#: otherwise dominate exactly the runs the prefix-sharing executor
#: speeds up. ``_LOCK`` covers lookup, growth, eviction and slicing:
#: the serve scheduler runs points on whatever executor it is handed,
#: a thread pool included.
_MEMO: "OrderedDict[Tuple, Family]" = OrderedDict()
_LOCK = threading.Lock()

#: byte budget of the memoized families' trace columns: least recently
#: used families are dropped until the rest fit, but never the family
#: a call just served. The Fig 6-10 grid's ten families (5 programs x
#: {2P, 4P} at scale 0.5) take about 9 MB, so a figure sweep builds
#: each family once per process instead of cycling through them.
_MEMO_BUDGET_BYTES = 32 << 20


def clear_memo() -> None:
    """Drop every memoized family (frees their trace columns).

    For callers about to run timing-sensitive measurements that the
    retained heap would perturb, and for tests that need cold
    generation."""
    with _LOCK:
        _MEMO.clear()


def generate(name: str, num_cpus: int, scale: float = 1.0,
             seed: int = 0) -> Workload:
    """Build the named workload (paper ordering: fft radix barnes lu
    ocean). Equal to the one-shot ``splash2.<name>(num_cpus, scale,
    seed + 1)``; the returned traces are the caller's own copies."""
    program = PROGRAMS.get(name)
    if program is None:
        raise TraceError(
            f"unknown workload {name!r}; choose from "
            f"{sorted(WORKLOADS)}")
    # Each generator has its own default seed; offset by the caller's.
    seed = seed + 1
    units = program.units(scale)
    key: Tuple = (name, int(num_cpus), int(seed))
    if not program.prefix_stable:
        key += (units,)
    with _LOCK:
        family = _MEMO.get(key)
        if family is None:
            family = _MEMO[key] = Family(program, num_cpus, seed, units)
        else:
            _MEMO.move_to_end(key)
        workload = family.workload(scale)   # may grow the family
        held = sum(entry.nbytes for entry in _MEMO.values())
        while held > _MEMO_BUDGET_BYTES and len(_MEMO) > 1:
            held -= _MEMO.popitem(last=False)[1].nbytes
        return workload
