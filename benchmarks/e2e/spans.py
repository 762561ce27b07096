"""Span ledger measured from outside the simulator.

:class:`Tracer` wraps the public entry points of each ``repro.*``
layer (see :data:`LAYERS`) in timing wrappers. Every wrapper keeps a
per-thread span stack, so a span's *self* time is its duration minus
its children's, and aggregates calls, total time and self time per
(trace id, layer), where the trace id is the point key (or serve job)
being executed. All arithmetic is in integer nanoseconds, so within a
thread ``sum(self) + root self == root duration`` holds exactly; the
root's self time is reported as ``unattributed_s``.

Coarse spans (sweeps, points, chains, campaigns, jobs, queue waits)
are also kept whole and exported once as Chrome-trace JSON; the
fine-grained ones (bus issues, snoops, fills...) are only aggregated,
since a sweep makes millions of them.

Nothing in the simulator knows about this module: wrappers are
installed by assigning to class and module attributes and removed
the same way, and worker processes of the serve plane install them
through :func:`traced_point_runner`.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_NS = 1e-9

#: layer name -> the entry points it wraps, as (module, attribute path)
#: pairs. Order matters only for export readability.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads.generate": (("repro.workloads.registry", "generate"),),
    # the hit loop: SmpSystem.run (any engine backend) plus the
    # resumable loop that fork paths enter directly
    "smp.hitloop": (("repro.smp.system", "SmpSystem.run"),
                    ("repro.smp.fastpath", "_run_loop"),
                    ("repro.sim.checkpoint", "_run_loop")),
    "smp.slowpath": (("repro.smp.system", "SmpSystem._execute_miss"),
                     ("repro.smp.system", "SmpSystem._execute_upgrade"),
                     ("repro.smp.system", "SmpSystem._post_writeback")),
    "coherence": (("repro.coherence.protocol", "MesiProtocol.bus_read"),
                  ("repro.coherence.protocol",
                   "MesiProtocol.bus_read_exclusive"),
                  ("repro.coherence.protocol", "MesiProtocol.bus_upgrade"),
                  ("repro.coherence.msi", "MsiProtocol.bus_read")),
    "cache.fill": (("repro.cache.hierarchy", "CacheHierarchy.fill"),
                   ("repro.cache.hierarchy", "CacheHierarchy.upgrade")),
    "bus.issue": (("repro.bus.bus", "SharedBus.issue"),),
    "senss": (("repro.core.senss", "SenssBusLayer.before_transfer"),
              ("repro.core.senss", "SenssBusLayer.after_transfer"),
              ("repro.core.senss", "SenssBusLayer._broadcast_mac")),
    "memprotect": (("repro.memprotect.integrated",
                    "MemProtectLayer.on_memory_fetch"),
                   ("repro.memprotect.integrated",
                    "MemProtectLayer.on_writeback")),
    "stats.flush": (("repro.sim.stats", "StatsRegistry.as_dict"),),
    "sweep": (("repro.sim.sweep", "run_sweep"),
              ("repro.sim.sweep", "run_point")),
    "sweep.cache.load": (("repro.sim.sweep", "ResultCache.load"),),
    "sweep.cache.store": (("repro.sim.sweep", "ResultCache.store"),),
    "checkpoint": (("repro.sim.checkpoint", "run_chain"),
                   ("repro.sim.checkpoint", "fork_point")),
    "checkpoint.capture": (("repro.sim.checkpoint", "capture"),),
    "checkpoint.restore": (("repro.sim.checkpoint", "restore"),),
    "checkpoint.store.write": (("repro.sim.checkpoint",
                                "CheckpointStore.store"),),
    "checkpoint.store.read": (("repro.sim.checkpoint",
                               "CheckpointStore.best"),),
    "faults.campaign": (("repro.faults.campaign", "run_campaign"),),
    "serve.submit": (("repro.serve.client", "ServeClient.submit"),),
    "serve.queue": (("repro.serve.fairqueue", "WeightedFairQueue.push"),
                    ("repro.serve.fairqueue",
                     "WeightedFairQueue.push_front"),
                    ("repro.serve.fairqueue", "WeightedFairQueue.pop")),
}

#: the per-point layers a serve worker traces. Slow-path wrappers
#: would slow its points several-fold and overload the served system
#: whose queueing the serve workload measures, so there the hit loop's
#: self time covers the whole engine run.
WORKER_LAYERS = ("workloads.generate", "smp.hitloop", "stats.flush",
                 "sweep")

#: layers whose every span is kept for the Chrome trace
COARSE_LAYERS = frozenset({"sweep", "checkpoint", "faults.campaign",
                           "serve.submit"})

ROOT = "root"


class _ThreadState:
    """One thread's span stack plus its per-trace-id aggregates."""

    __slots__ = ("stack", "rows", "trace_id", "aggregates", "counts",
                 "thread")

    def __init__(self, layer_count: int, thread: str):
        self.stack: List[list] = []
        self.trace_id = ""
        self.aggregates: Dict[str, List[List[int]]] = {}
        self.rows = self._rows_for("", layer_count)
        self.counts: Dict[str, int] = {}
        self.thread = thread

    def _rows_for(self, trace_id: str, layer_count: int):
        rows = self.aggregates.get(trace_id)
        if rows is None:
            rows = [[0, 0, 0] for _ in range(layer_count)]
            self.aggregates[trace_id] = rows
        return rows


class Tracer:
    """Installs layer wrappers and aggregates their spans.

    ``layers`` restricts which of :data:`LAYERS` get wrapped; ``clock``
    (integer nanoseconds) is replaceable for tests. The tracer is a
    context manager: entering installs, leaving restores every
    original attribute.
    """

    def __init__(self, layers: Optional[Tuple[str, ...]] = None,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.layer_names: List[str] = [ROOT] + [
            name for name in LAYERS if layers is None or name in layers]
        self._index = {name: i for i, name in enumerate(self.layer_names)}
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []
        #: coarse spans: (layer, name, trace id, thread, start ns, dur ns)
        self.spans: List[tuple] = []
        self.clock = clock
        self.epoch_ns = clock()
        self.root_ns: Optional[int] = None
        self.root_self_ns: Optional[int] = None
        self._root_state: Optional[_ThreadState] = None
        #: fair-queue entry times by item id, and the completed waits
        self._queued: Dict[int, int] = {}
        self.queue_waits_ns: List[int] = []

    def queue_waits_ms(self) -> List[float]:
        return [wait / 1e6 for wait in self.queue_waits_ns]

    # -- per-thread state ----------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(len(self.layer_names),
                                 threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: int) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    # -- spans -----------------------------------------------------------

    def _enter(self, state: _ThreadState, index: int,
               trace_id: Optional[str]):
        frame = [index, 0, state.trace_id, state.rows]
        if trace_id is not None:
            state.trace_id = trace_id
            state.rows = state._rows_for(trace_id, len(self.layer_names))
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list, start: int,
              end: int, name: str) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        index = frame[0]
        row = state.rows[index]
        # A same-layer child (a subclass calling its parent's method,
        # a MAC broadcast re-entering the bus) is one call of that
        # layer: count it and its total once, its self time always.
        parent = stack[-1] if stack else None
        if parent is None or parent[0] != index:
            row[0] += 1
            row[1] += duration
        row[2] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        if self.layer_names[index] in COARSE_LAYERS:
            self.spans.append((self.layer_names[index], name,
                               state.trace_id, state.thread,
                               start - self.epoch_ns, duration))
        state.trace_id = frame[2]
        state.rows = frame[3]

    @contextmanager
    def root(self, trace_id: str = ""):
        """The traced region of the calling thread. On exit,
        :attr:`root_ns` holds its duration and :attr:`root_self_ns`
        the part no layer span covered."""
        state = self._state()
        if state.stack:
            raise RuntimeError("root span must be outermost")
        self._root_state = state
        start = self.clock()
        frame = self._enter(state, 0, trace_id)
        try:
            yield self
        finally:
            end = self.clock()
            state.stack.pop()
            self.root_ns = end - start
            self.root_self_ns = self.root_ns - frame[1]
            state.rows[0][0] += 1
            state.rows[0][1] += self.root_ns
            state.rows[0][2] += self.root_self_ns
            state.trace_id = frame[2]
            state.rows = frame[3]

    def add_span(self, layer: str, name: str, trace_id: str,
                 start_ns: int, duration_ns: int) -> None:
        """Record an already-measured coarse span (a serve job, a
        queue wait) for the Chrome trace only."""
        self.spans.append((layer, name, trace_id,
                           threading.current_thread().name,
                           start_ns - self.epoch_ns, duration_ns))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str,
              probe=None) -> Callable:
        tracer = self
        index = self._index[layer]
        keyed = layer in ("sweep", "checkpoint")
        clock = self.clock
        local = self._local
        # Only hooks a probe overrides are called.
        before = probe.before if probe and \
            type(probe).before is not _Probe.before else None
        after = probe.after if probe and \
            type(probe).after is not _Probe.after else None

        def wrapper(*args, **kwargs):
            state = tracer._state()
            trace_id = _point_trace_id(args) if keyed else None
            token = before(tracer, args, kwargs) if before else None
            start = clock()
            frame = tracer._enter(state, index, trace_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(state, frame, start, clock(), name)
            if after:
                after(tracer, token, args, kwargs, result)
            return result

        def fine(*args, **kwargs):
            # _enter/_exit inlined: these layers run millions of times
            # per sweep, never switch trace id and keep no span.
            try:
                state = local.state
            except AttributeError:
                state = tracer._state()
            token = before(tracer, args, kwargs) if before else None
            stack = state.stack
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                row = state.rows[index]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    if parent[0] != index:
                        row[0] += 1
                        row[1] += duration
                else:
                    row[0] += 1
                    row[1] += duration
                row[2] += duration - frame[1]
            if after:
                after(tracer, token, args, kwargs, result)
            return result

        if not (keyed or layer in COARSE_LAYERS):
            wrapper = fine
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self) -> "Tracer":
        for layer in self.layer_names[1:]:
            for module_name, path in LAYERS[layer]:
                owner = importlib.import_module(module_name)
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attribute = parts[-1]
                original = owner.__dict__[attribute]
                self._installed.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(
                    original, layer, path, _PROBES.get(path)))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def totals(self, states: Optional[List[_ThreadState]] = None
               ) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
        """``({layer: [calls, total_ns, self_ns]}, counts)`` summed
        over every thread (or the given thread states)."""
        totals = {name: [0, 0, 0] for name in self.layer_names}
        counts: Dict[str, int] = {}
        if states is None:
            with self._states_lock:
                states = list(self._states)
        for state in states:
            for rows in state.aggregates.values():
                for name, row in zip(self.layer_names, rows):
                    total = totals[name]
                    total[0] += row[0]
                    total[1] += row[1]
                    total[2] += row[2]
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
        return totals, counts

    def root_identity(self) -> Tuple[int, int, int]:
        """``(sum of layer self ns, unattributed ns, root ns)`` over the
        root's thread; the first two add up to the third exactly."""
        if self._root_state is None or self.root_ns is None:
            raise RuntimeError("no root span has completed")
        totals, _ = self.totals([self._root_state])
        layer_self = sum(row[2] for name, row in totals.items()
                         if name != ROOT)
        return layer_self, self.root_self_ns, self.root_ns

    def reset(self) -> None:
        """Drop every aggregate and count (a serve worker ships one
        point's worth per call)."""
        with self._states_lock:
            for state in self._states:
                state.aggregates.clear()
                state.rows = state._rows_for(state.trace_id,
                                             len(self.layer_names))
                state.counts.clear()

    def per_trace(self) -> Dict[str, Dict[str, List[int]]]:
        """``{trace id: {layer: [calls, total_ns, self_ns]}}``, layers
        with no calls omitted."""
        merged: Dict[str, Dict[str, List[int]]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for trace_id, rows in state.aggregates.items():
                entry = merged.setdefault(trace_id, {})
                for name, row in zip(self.layer_names, rows):
                    if not row[0] and not row[2]:
                        continue
                    slot = entry.setdefault(name, [0, 0, 0])
                    for i in range(3):
                        slot[i] += row[i]
        return merged

    def write_chrome_trace(self, path: Path,
                           metadata: Optional[dict] = None) -> None:
        """Coarse spans as Chrome/Perfetto ``X`` events (µs), with the
        per-(trace id, layer) aggregates in ``otherData``."""
        threads: Dict[str, int] = {}
        events = []
        for layer, name, trace_id, thread, start, duration in self.spans:
            tid = threads.setdefault(thread, len(threads) + 1)
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": start / 1000.0,
                           "dur": duration / 1000.0,
                           "pid": 1, "tid": tid,
                           "args": {"trace_id": trace_id}})
        for thread, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": thread}})
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {},
                              aggregates=self.per_trace()),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def _point_trace_id(args) -> Optional[str]:
    """Point key of a ``run_point``/``fork_point``-style call, so the
    point's layers aggregate under it; None for sweeps and chains."""
    if not args:
        return None
    point = args[0]
    if not hasattr(point, "config") or not hasattr(point, "scale"):
        return None
    from repro.sim.sweep import point_key
    return point_key(point)


# -- probes: counts measured at the wrapped boundaries ---------------------


class _Probe:
    def before(self, tracer: Tracer, args, kwargs):
        return None

    def after(self, tracer: Tracer, token, args, kwargs,
              result) -> None:
        pass


class _GenerateProbe(_Probe):
    def before(self, tracer, args, kwargs):
        from repro.workloads import registry
        name, num_cpus = args[0], args[1]
        scale = args[2] if len(args) > 2 else kwargs.get("scale", 1.0)
        seed = args[3] if len(args) > 3 else kwargs.get("seed", 0)
        return (name, int(num_cpus), float(scale), int(seed)) \
            in registry._MEMO

    def after(self, tracer, token, args, kwargs, result):
        if token:
            tracer.count("workloads.memo_hits", 1)


class _RunProbe(_Probe):
    """Accesses and cache hits of a whole ``SmpSystem.run``."""

    def after(self, tracer, token, args, kwargs, result):
        stats = result.stats
        hits = misses = 0
        for name, value in stats.items():
            if name.endswith((".l1_hit", ".l2_hit")):
                hits += value
            elif name.endswith((".l2_miss", ".upgrade_needed")):
                misses += value
        tracer.count("smp.accesses", hits + misses)
        tracer.count("smp.hits", hits)


class _LoopProbe(_Probe):
    """Accesses and hits one ``_run_loop`` slice executed (a forked
    run only executes its tail). Skipped inside ``SmpSystem.run``,
    whose probe already counts the whole run."""

    def before(self, tracer, args, kwargs):
        stack = tracer._state().stack
        if stack and tracer.layer_names[stack[-1][0]] == "smp.hitloop":
            return None
        cursors, counters = args[3], args[4]
        return sum(cursors), sum(counters[0]) + sum(counters[1])

    def after(self, tracer, token, args, kwargs, result):
        if token is None:
            return
        cursors, counters = args[3], args[4]
        tracer.count("smp.accesses", sum(cursors) - token[0])
        tracer.count("smp.hits",
                     sum(counters[0]) + sum(counters[1]) - token[1])


class _IssueProbe(_Probe):
    """Simulated arbitration wait: grant minus request cycle."""

    def after(self, tracer, token, args, kwargs, result):
        # args: (bus, transaction, request_cycle, ...)
        tracer.count("bus.wait_cycles", result.grant_cycle - args[2])


class _MaskProbe(_Probe):
    def before(self, tracer, args, kwargs):
        return args[0].total_mask_wait

    def after(self, tracer, token, args, kwargs, result):
        waited = args[0].total_mask_wait - token
        if waited:
            tracer.count("senss.mask_wait_cycles", waited)


class _BroadcastProbe(_Probe):
    def after(self, tracer, token, args, kwargs, result):
        tracer.count("senss.auth_broadcasts", 1)


class _LoadProbe(_Probe):
    def after(self, tracer, token, args, kwargs, result):
        tracer.count("sweep.cache.loads", 1)
        if result is not None:
            tracer.count("sweep.cache.hits", 1)


class _CaptureProbe(_Probe):
    def after(self, tracer, token, args, kwargs, result):
        tracer.count("checkpoint.snapshot_bytes", len(result.blob))


class _RestoreProbe(_Probe):
    def before(self, tracer, args, kwargs):
        return int(args[0].meta.get("accesses", 0))

    def after(self, tracer, token, args, kwargs, result):
        tracer.count("checkpoint.restored_accesses", token)


class _ForkProbe(_Probe):
    def after(self, tracer, token, args, kwargs, result):
        tracer.count("checkpoint.fork_points", 1)
        if result.forked:
            tracer.count("checkpoint.forked_points", 1)


class _CampaignProbe(_Probe):
    def after(self, tracer, token, args, kwargs, result):
        tracer.count("faults.cells", len(result["entries"]))
        tracer.count("faults.forked_cells", result["forked_cells"])


class _PushProbe(_Probe):
    """Queue entry time of a point, for its fair-queue wait."""

    def after(self, tracer, token, args, kwargs, result):
        with tracer._states_lock:
            tracer._queued[id(args[2])] = tracer.clock()


class _PopProbe(_Probe):
    def after(self, tracer, token, args, kwargs, result):
        now = tracer.clock()
        item = result[1]
        with tracer._states_lock:
            start = tracer._queued.pop(id(item), None)
            if start is not None:
                tracer.queue_waits_ns.append(now - start)
        if start is not None:
            tracer.add_span("serve.queue", "queue wait",
                            getattr(getattr(item, "job", None), "id", ""),
                            start, now - start)


_PROBES = {
    "generate": _GenerateProbe(),
    "SmpSystem.run": _RunProbe(),
    "_run_loop": _LoopProbe(),
    "SharedBus.issue": _IssueProbe(),
    "SenssBusLayer.before_transfer": _MaskProbe(),
    "SenssBusLayer._broadcast_mac": _BroadcastProbe(),
    "ResultCache.load": _LoadProbe(),
    "capture": _CaptureProbe(),
    "restore": _RestoreProbe(),
    "fork_point": _ForkProbe(),
    "run_campaign": _CampaignProbe(),
    "WeightedFairQueue.push": _PushProbe(),
    "WeightedFairQueue.push_front": _PushProbe(),
    "WeightedFairQueue.pop": _PopProbe(),
}


# -- per-layer metrics -----------------------------------------------------

#: (name, unit, better) of every per-layer metric, in report order;
#: BENCHMARK.json's ``per_layer`` lists exactly these
PER_LAYER_METRICS = (
    ("workloads.generate.calls", "count", "lower"),
    ("workloads.generate.self_s", "s", "lower"),
    ("workloads.generate.memo_hit_ratio", "ratio", "higher"),
    ("smp.run.calls", "count", "lower"),
    ("smp.accesses", "count", "lower"),
    ("smp.hit_ratio", "ratio", "higher"),
    ("smp.hitloop.self_s", "s", "lower"),
    ("smp.slowpath.calls", "count", "lower"),
    ("smp.slowpath.self_s", "s", "lower"),
    ("coherence.calls", "count", "lower"),
    ("coherence.self_s", "s", "lower"),
    ("cache.fill.calls", "count", "lower"),
    ("cache.fill.self_s", "s", "lower"),
    ("bus.issue.calls", "count", "lower"),
    ("bus.issue.self_s", "s", "lower"),
    ("bus.wait_cycles", "cycles", "lower"),
    ("senss.calls", "count", "lower"),
    ("senss.self_s", "s", "lower"),
    ("senss.mask_wait_cycles", "cycles", "lower"),
    ("senss.auth_broadcasts", "count", "lower"),
    ("memprotect.calls", "count", "lower"),
    ("memprotect.self_s", "s", "lower"),
    ("memprotect.pad_hit_ratio", "ratio", "higher"),
    ("memprotect.hash_hit_ratio", "ratio", "higher"),
    ("stats.flush.calls", "count", "lower"),
    ("stats.flush.self_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.worker_busy_frac", "ratio", "higher"),
    ("sweep.pool_overhead_s", "s", "lower"),
    ("sweep.cache.load_s", "s", "lower"),
    ("sweep.cache.store_s", "s", "lower"),
    ("sweep.cache.hit_ratio", "ratio", "higher"),
    ("checkpoint.self_s", "s", "lower"),
    ("checkpoint.capture.calls", "count", "lower"),
    ("checkpoint.capture.self_s", "s", "lower"),
    ("checkpoint.restore.calls", "count", "lower"),
    ("checkpoint.restore.self_s", "s", "lower"),
    ("checkpoint.store.write_s", "s", "lower"),
    ("checkpoint.store.read_s", "s", "lower"),
    ("checkpoint.snapshot_bytes", "bytes", "lower"),
    ("checkpoint.fork_ratio", "ratio", "higher"),
    ("checkpoint.prefix_skip_ratio", "ratio", "higher"),
    ("faults.campaign.self_s", "s", "lower"),
    ("faults.forked_cell_ratio", "ratio", "higher"),
    ("serve.submit.self_s", "s", "lower"),
    ("serve.queue.self_s", "s", "lower"),
    ("serve.submit_rtt_ms", "ms", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p90_ms", "ms", "lower"),
    ("serve.exec_p50_ms", "ms", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.dedup_ratio", "ratio", "higher"),
    ("serve.worker_busy_frac", "ratio", "lower"),
    ("trace.root_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)

#: self-time metric name of each layer (``<layer>.self_s`` unless the
#: layer's time is named for what it does)
SELF_METRIC = {
    "sweep.cache.load": "sweep.cache.load_s",
    "sweep.cache.store": "sweep.cache.store_s",
    "checkpoint.store.write": "checkpoint.store.write_s",
    "checkpoint.store.read": "checkpoint.store.read_s",
}

#: layer whose call count each ``*.calls`` metric reports
CALLS_METRIC = {
    "workloads.generate": "workloads.generate.calls",
    "smp.hitloop": "smp.run.calls",
    "smp.slowpath": "smp.slowpath.calls",
    "coherence": "coherence.calls",
    "cache.fill": "cache.fill.calls",
    "bus.issue": "bus.issue.calls",
    "senss": "senss.calls",
    "memprotect": "memprotect.calls",
    "stats.flush": "stats.flush.calls",
    "checkpoint.capture": "checkpoint.capture.calls",
    "checkpoint.restore": "checkpoint.restore.calls",
}

#: metrics only some workloads exercise; 0 where a workload never
#: enters the layer
_DEFAULT_ZERO = ("sweep.worker_busy_frac", "sweep.pool_overhead_s",
                 "serve.submit_rtt_ms", "serve.queue_wait_p50_ms",
                 "serve.queue_wait_p90_ms", "serve.exec_p50_ms",
                 "serve.cache_hit_ratio", "serve.dedup_ratio",
                 "serve.worker_busy_frac")


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Dict[str, List[int]], counts: Dict[str, int],
                  extra: Dict[str, float]) -> Dict[str, dict]:
    """Every :data:`PER_LAYER_METRICS` entry as ``{"value", "unit"}``
    from span totals, boundary counts and workload-measured ``extra``
    values (simulated ratios, pool accounting, serve percentiles, the
    root and the tracing overhead)."""
    values: Dict[str, float] = {name: 0.0 for name in _DEFAULT_ZERO}
    for layer in LAYERS:
        row = totals.get(layer, [0, 0, 0])
        values[SELF_METRIC.get(layer, f"{layer}.self_s")] = seconds(row[2])
        if layer in CALLS_METRIC:
            values[CALLS_METRIC[layer]] = row[0]
    executed = counts.get("smp.accesses", 0)
    restored = counts.get("checkpoint.restored_accesses", 0)
    values.update({
        "workloads.generate.memo_hit_ratio": _ratio(
            counts.get("workloads.memo_hits", 0),
            totals.get("workloads.generate", [0])[0]),
        "smp.accesses": executed,
        "smp.hit_ratio": _ratio(counts.get("smp.hits", 0), executed),
        "bus.wait_cycles": counts.get("bus.wait_cycles", 0),
        "senss.mask_wait_cycles": counts.get("senss.mask_wait_cycles", 0),
        "senss.auth_broadcasts": counts.get("senss.auth_broadcasts", 0),
        "sweep.cache.hit_ratio": _ratio(
            counts.get("sweep.cache.hits", 0),
            counts.get("sweep.cache.loads", 0)),
        "checkpoint.snapshot_bytes":
            counts.get("checkpoint.snapshot_bytes", 0),
        "checkpoint.fork_ratio": _ratio(
            counts.get("checkpoint.forked_points", 0),
            counts.get("checkpoint.fork_points", 0)),
        "checkpoint.prefix_skip_ratio": _ratio(restored,
                                               restored + executed),
        "faults.forked_cell_ratio": _ratio(
            counts.get("faults.forked_cells", 0),
            counts.get("faults.cells", 0)),
    })
    values.update(extra)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in PER_LAYER_METRICS}


# -- serve workers ---------------------------------------------------------

#: per-worker-process tracer, created by the first traced point
_WORKER_TRACER: Optional[Tracer] = None
#: prefix of the integer counters a worker ships back to the scheduler
COUNTER_PREFIX = "e2e."


def traced_point_runner(point):
    """Serve-plane runner (``Scheduler(runner=...)``) that runs a point
    under the simulator-layer wrappers and ships the point's integer
    aggregates back as the runner's third tuple element; the scheduler
    folds them into ``/v1/stats`` counters named ``e2e.<layer>.*``."""
    global _WORKER_TRACER
    from repro.sim.sweep import _run_point_timed, point_key
    if _WORKER_TRACER is None:
        _WORKER_TRACER = Tracer(WORKER_LAYERS).install()
    tracer = _WORKER_TRACER
    tracer.reset()
    with tracer.root(trace_id=point_key(point)):
        result, seconds = _run_point_timed(point)
    totals, counts = tracer.totals()
    shipped: Dict[str, int] = {}
    for layer, (calls, _total, self_ns) in totals.items():
        if calls or self_ns:
            shipped[f"{COUNTER_PREFIX}{layer}.calls"] = calls
            shipped[f"{COUNTER_PREFIX}{layer}.self_ns"] = self_ns
    for name, value in counts.items():
        shipped[f"{COUNTER_PREFIX}count.{name}"] = value
    return result, seconds, shipped


def worker_totals(counters: Dict[str, int]
                  ) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
    """Invert :func:`traced_point_runner`'s counter naming:
    ``({layer: [calls, 0, self_ns]}, counts)``."""
    totals: Dict[str, List[int]] = {}
    counts: Dict[str, int] = {}
    for name, value in counters.items():
        if not name.startswith(COUNTER_PREFIX):
            continue
        rest = name[len(COUNTER_PREFIX):]
        if rest.startswith("count."):
            counts[rest[len("count."):]] = int(value)
            continue
        layer, _, field = rest.rpartition(".")
        row = totals.setdefault(layer, [0, 0, 0])
        if field == "calls":
            row[0] = int(value)
        elif field == "self_ns":
            row[2] = int(value)
    return totals, counts


def seconds(ns: int) -> float:
    return ns * _NS
