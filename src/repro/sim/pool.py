"""One worker pool for sweeps (fault campaigns too) and the serve plane.

A worker that dies (OOM kill, segfault, chaos ``SIGKILL``) breaks a
``ProcessPoolExecutor`` for good: every in-flight future fails with
``BrokenProcessPool`` and every later submit raises. A worker that
hangs holds its slot forever. :class:`WorkerPool` covers both by
kill-and-respawn: :meth:`WorkerPool.submit` replaces a broken executor
before it submits, and :meth:`WorkerPool.restart` replaces one on
demand (forced, it kills a hung worker).

The pool never retries a task and keeps no deadline: each caller
keeps its own failure rule and the serve scheduler arms its own
deadline timers (docs/resilience.md). Sweeps use the
platform-default context (``fork`` on Linux), so workers inherit the
parent's trace memo; the server uses :func:`serve_context`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple


def serve_context():
    """The multiprocessing context of the long-lived server's pool.

    Plain ``fork`` is a trap there: a restart forks replacement
    workers *while client connections are open*, and fork-children
    inherit every open socket FD — the kernel then never sends FIN on
    those connections when the server closes them, so every
    pre-restart NDJSON stream hangs forever. ``forkserver`` workers
    are forked from a clean early-started helper process that holds
    no connection FDs (``spawn`` as the fallback re-execs, which drops
    non-inheritable FDs per PEP 446).
    """
    try:
        context = multiprocessing.get_context("forkserver")
        # Pre-import the hot modules once in the fork server so each
        # respawned worker inherits warm imports instead of paying
        # them per fork.
        context.set_forkserver_preload(
            ["repro.sim.sweep", "repro.workloads.registry"])
        return context
    except ValueError:  # platform without forkserver
        return multiprocessing.get_context("spawn")


def _noop() -> None:
    """Target of :meth:`WorkerPool.kick`."""


def _kill(executor: ProcessPoolExecutor) -> None:
    """Kill an executor's workers outright, then join them and its
    management thread. Killing first keeps this from blocking on a
    hung worker: once its workers are dead, the management thread
    fails whatever was in flight, joins them and exits."""
    thread = executor._executor_manager_thread
    for process in list((executor._processes or {}).values()):
        with contextlib.suppress(OSError, ValueError):
            process.kill()
    executor.shutdown(wait=False, cancel_futures=True)
    if thread is not None:
        thread.join()


class WorkerPool:
    """A self-healing process pool of up to ``workers`` workers.

    ``context`` is the multiprocessing context (None: the platform
    default). An injected ``executor`` (tests hand in a
    ``ThreadPoolExecutor``) is never replaced and never killed.
    """

    def __init__(self, workers: int, context=None, executor=None):
        self.workers = max(1, workers)
        self.context = context
        self._injected = executor is not None
        self._executor = executor if executor is not None \
            else self._new_executor()
        self._closed = False
        #: executors replaced because they broke or were forced out
        self.restarts = 0

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=self.context)

    @property
    def alive(self) -> bool:
        """False once a worker died (submits would raise) or the pool
        was closed."""
        return not self._closed and \
            not getattr(self._executor, "_broken", False)

    def kick(self) -> None:
        """Start the context's helper process (the fork server) with
        one throwaway process, so that a server that calls this before
        it opens a socket has a helper that holds none."""
        if self.context is not None and not self._injected:
            process = self.context.Process(target=_noop)
            process.start()
            process.join()

    def restart(self, force: bool = False) -> bool:
        """Kill the executor and swap in a fresh one; True when a swap
        happened. A no-op unless the pool is broken (or ``force``), so
        the many callbacks of one mass failure cost one restart, and
        always a no-op on an injected executor or a closed pool."""
        if self._injected or self._closed or (self.alive and not force):
            return False
        _kill(self._executor)
        self._executor = self._new_executor()
        self.restarts += 1
        return True

    def submit(self, fn: Callable, arg) -> Future:
        """``fn(arg)`` on a worker. A broken pool is replaced first,
        and a submit that still finds it broken (a worker died in
        between) is retried once on a fresh one."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        self.restart()
        try:
            return self._executor.submit(fn, arg)
        except BrokenProcessPool:
            self.restart()
            return self._executor.submit(fn, arg)

    def map(self, fn: Callable, items: Sequence
            ) -> List[Tuple[object, Optional[Exception]]]:
        """``fn(item)`` for every item, one item per task: ``(value,
        None)`` or ``(None, exception)`` per item, in input order.
        Every failure is captured, a dead worker's
        ``BrokenProcessPool`` included."""
        futures = [self.submit(fn, item) for item in items]
        outcomes: List[Tuple[object, Optional[Exception]]] = []
        for future in futures:
            try:
                outcomes.append((future.result(), None))
            except Exception as exc:
                outcomes.append((None, exc))
        return outcomes

    def close(self) -> None:
        """Kill and join every worker; later submits raise."""
        if not self._closed and not self._injected:
            _kill(self._executor)
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
