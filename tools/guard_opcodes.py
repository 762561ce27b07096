"""Count the opcodes a simulation spends on its disabled hook guards.

The observer and fault-injection hooks cost nothing but their guards
when nothing is attached: an ``is not None`` test per hook site and
the bus's empty observer loop. This helper turns that cost into an
exact, noise-free number. It runs one simulation under
``sys.settrace`` with ``f_trace_opcodes`` on, counts every executed
opcode, and attributes the ones on guard lines to their hook family:

- ``observer``: ``is not None`` tests on ``_obs``/``observer`` and the
  local copies (``observer = self.observer``) that feed them;
- ``fault_hook``: ``is not None`` tests on ``fault_hook``;
- ``bus_observers``: the bus's ``for observer in self._observers``
  loop.

Guard lines are found by walking the ``repro`` package's syntax
trees, so a new hook site is counted without editing this file. A
guard line is charged in full, including any other test sharing the
line (``if mask_wait and self.observer is not None``), so a share is
an upper bound on the guards' cost. Counts are deterministic: the same
point gives the same numbers on every run. A per-opcode callback
slows the simulator by about 40x.
"""

from __future__ import annotations

import ast
import gc
import os
import pathlib
import sys
from typing import Callable, Dict

FAMILIES = ("observer", "fault_hook", "bus_observers")

#: hook attribute -> family of its ``is not None`` guards.
_HOOK_ATTRS = {"_obs": "observer", "observer": "observer",
               "fault_hook": "fault_hook"}


def _hook_family(node) -> str:
    """Family of a hook reference (``x.observer``, ``observer``...)."""
    if isinstance(node, ast.Attribute):
        return _HOOK_ATTRS.get(node.attr, "")
    if isinstance(node, ast.Name):
        return _HOOK_ATTRS.get(node.id, "")
    return ""


def _guards_in(tree) -> Dict[int, str]:
    """Line number -> family for every hook guard in one module."""
    lines = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], ast.IsNot)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None
                and _hook_family(node.left)):
            lines[node.lineno] = _hook_family(node.left)
        elif (isinstance(node, ast.Assign)
              and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Attribute)
              and _hook_family(node.value)):
            lines[node.lineno] = _hook_family(node.value)
        elif (isinstance(node, ast.For)
              and isinstance(node.iter, ast.Attribute)
              and node.iter.attr == "_observers"):
            for lineno in range(node.lineno, node.end_lineno + 1):
                lines[lineno] = "bus_observers"
    return lines


def guard_lines(package_dir=None) -> Dict[str, Dict[int, str]]:
    """Real path of each ``repro`` module -> {line: family}."""
    if package_dir is None:
        import repro
        package_dir = pathlib.Path(repro.__file__).parent
    guards = {}
    for path in sorted(pathlib.Path(package_dir).rglob("*.py")):
        lines = _guards_in(ast.parse(path.read_text(), str(path)))
        if lines:
            guards[os.path.realpath(path)] = lines
    return guards


def count_opcodes(fn: Callable[[], object], guards=None) -> dict:
    """Run ``fn()`` under an opcode tracer; return the counts.

    ``{"opcodes": total, "guard_opcodes": {family: n},
    "guard_lines": {family: distinct lines executed}}``.
    """
    if guards is None:
        guards = guard_lines()
    opcodes = [0]
    by_family = dict.fromkeys(FAMILIES, 0)
    lines_hit = {family: set() for family in FAMILIES}
    tracers: Dict[str, Callable] = {}

    def plain(frame, event, arg):
        if event == "opcode":
            opcodes[0] += 1
        return plain

    def guarded(lines):
        def local(frame, event, arg):
            if event == "opcode":
                opcodes[0] += 1
                family = lines.get(frame.f_lineno)
                if family is not None:
                    by_family[family] += 1
                    lines_hit[family].add((id(lines), frame.f_lineno))
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = tracers.get(filename)
        if tracer is None:
            lines = guards.get(os.path.realpath(filename))
            tracer = plain if lines is None else guarded(lines)
            tracers[filename] = tracer
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return tracer

    # Collection runs finalizers and gc callbacks as Python code in
    # this thread, at points that depend on what earlier code left
    # behind; collect first and hold it off so only ``fn`` is counted.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return {"opcodes": opcodes[0], "guard_opcodes": by_family,
            "guard_lines": {family: len(hit)
                            for family, hit in lines_hit.items()}}


def count_run(config, workload, guards=None) -> dict:
    """Opcode counts of one ``system.run(workload)`` on a fresh machine
    (building the machine is not counted)."""
    from repro.sim.sweep import build_system

    system = build_system(config)
    return count_opcodes(lambda: system.run(workload), guards)


def share_percent(counts: dict, *families: str) -> float:
    """Share of all executed opcodes spent on ``families``' guards."""
    guarded = sum(counts["guard_opcodes"][family] for family in families)
    return guarded / counts["opcodes"] * 100

