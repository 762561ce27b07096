"""Worker supervision: deadlines, hang detection, kill-and-respawn.

``ProcessPoolExecutor`` has two failure modes the bare scheduler
could not survive:

- **a worker dies** (OOM kill, segfault, chaos ``SIGKILL``): the pool
  marks itself broken, every in-flight future fails with
  ``BrokenProcessPool``, and every later submit raises — the whole
  server is wedged by one dead process;
- **a worker hangs** (deadlock, runaway point): the future simply
  never completes and the slot it occupies is gone forever.

:class:`WorkerSupervisor` wraps the pool with both covered. Every
submission is tracked until its future completes; a submission with
a deadline also arms one event-loop timer (``loop.call_later``) that
fires its ``on_timeout`` callback exactly once, when the deadline
expires, and is cancelled the moment the future completes. There is
no periodic wakeup and no background task, and one callback that
raises cannot stop another flight's timer. The scheduler's callback
decides policy (retry / quarantine) and calls :meth:`restart`, which
kills the old pool's processes outright (they are hung or dead —
graceful shutdown would block forever), swaps in a fresh executor,
and lets queued work resubmit. Restart is **idempotent per
breakage**: callbacks from several simultaneously-failed futures all
call it, only the first one acting on a live-but-broken pool pays.

The supervisor never retries by itself — retry/backoff/quarantine
policy lives in the scheduler, which knows about jobs, points and
the journal. This class only answers "is the pool alive, and did
this flight come back in time?".
"""

from __future__ import annotations

import asyncio
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional


def _worker_context():
    """The multiprocessing context for supervised pools.

    Plain ``fork`` is a trap here: :meth:`WorkerSupervisor.restart`
    forks replacement workers *while client connections are open*,
    and fork-children inherit every open socket FD — the kernel then
    never sends FIN on those connections when the server closes them,
    so every pre-restart NDJSON stream hangs forever. ``forkserver``
    workers are forked from a clean early-started helper process that
    holds no connection FDs (``spawn`` as the fallback re-execs, which
    drops non-inheritable FDs per PEP 446).
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
    """Target for the fork-server kick in :meth:`start`."""


def _warm_worker() -> int:
    """Run one micro-simulation so the worker has imported every hot
    module and built its first system before real points arrive."""
    from ..config import SystemConfig
    from ..sim.sweep import build_system
    from ..workloads.registry import generate
    workload = generate("fft", 1, scale=0.01, seed=0)
    return build_system(SystemConfig(num_processors=1)).run(
        workload).cycles


def _kill_pool(executor) -> None:
    """Kill an owned pool's worker processes outright, then shut it
    down without waiting: its workers may be hung or already dead,
    and a graceful shutdown would join them forever (or leave
    forkserver-spawned workers running as orphans)."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class WorkerSupervisor:
    """A self-healing wrapper around the scheduler's worker pool."""

    def __init__(self, max_workers: int = 2, warmup: bool = True,
                 executor=None, executor_factory=None):
        self.max_workers = max(1, max_workers)
        self._warmup = warmup
        self._executor = executor
        # An injected executor (tests hand in a ThreadPoolExecutor)
        # is never killed/replaced unless a factory says how.
        self._injected = executor is not None
        self._factory = executor_factory
        self.restarts = 0
        self.on_restart: Optional[Callable[[str], None]] = None
        #: in-flight future -> its armed deadline timer (None: no
        #: deadline, or the deadline already fired)
        self._flights: Dict[asyncio.Future,
                            Optional[asyncio.TimerHandle]] = {}
        self._context = None

    # -- pool lifecycle ------------------------------------------------

    @property
    def executor(self):
        return self._executor

    @property
    def alive(self) -> bool:
        """False once the pool has broken (a worker died) and submits
        would raise; :meth:`restart` restores it."""
        if self._executor is None:
            return False
        return not getattr(self._executor, "_broken", False)

    def _make_executor(self):
        if self._factory is not None:
            return self._factory()
        if self._context is None:
            self._context = _worker_context()
        return ProcessPoolExecutor(max_workers=self.max_workers,
                                   mp_context=self._context)

    async def start(self) -> "WorkerSupervisor":
        """Create (and warm) the worker pool; returns self.

        Call this before the server starts accepting connections:
        it kicks the fork server to life while no connection FDs
        exist yet (see :func:`_worker_context`) — started any later,
        the long-lived fork server would inherit whatever sockets
        happen to be open and pin them forever.
        """
        if self._executor is None:
            self._executor = self._make_executor()
        if self._context is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._kick_context)
        if self._warmup:
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(
                loop.run_in_executor(self._executor, _warm_worker)
                for _ in range(self.max_workers)))
        return self

    def _kick_context(self) -> None:
        """One throwaway process round-trip to start the fork server
        (or prime spawn) before any connection exists."""
        process = self._context.Process(target=_noop)
        process.start()
        process.join()

    def restart(self, reason: str = "", force: bool = False) -> bool:
        """Replace a broken pool with a fresh one.

        Kills the old pool's worker processes outright (they are hung
        or already dead; a graceful shutdown would join them forever)
        and abandons their futures — the executor has already failed
        them, or the caller's deadline policy has given up on them.
        No-op unless the pool is actually broken (or ``force``), which
        makes the many done-callbacks of one mass failure collapse to
        a single restart. Returns True when a swap happened.
        """
        if self._injected and self._factory is None:
            return False
        if self._executor is not None and self.alive and not force:
            return False
        if self._executor is not None:
            _kill_pool(self._executor)
        self._executor = self._make_executor()
        # Skip warmup on restart: recovery latency beats the first
        # point paying import cost again.
        self.restarts += 1
        if self.on_restart is not None:
            self.on_restart(reason)
        return True

    def stop(self) -> None:
        """Cancel every deadline timer and kill an owned pool.

        The caller has already drained (or given up on) outstanding
        work, so no flight's ``on_timeout`` may fire after this.
        """
        for timer in self._flights.values():
            if timer is not None:
                timer.cancel()
        self._flights.clear()
        if self._executor is not None and not self._injected:
            _kill_pool(self._executor)

    # -- supervised submission -----------------------------------------

    def submit(self, fn, arg, deadline_s: Optional[float] = None,
               on_timeout: Optional[Callable[[], None]] = None
               ) -> asyncio.Future:
        """Submit ``fn(arg)`` to the pool under supervision.

        A broken pool is restarted transparently before submitting.
        When ``deadline_s`` and ``on_timeout`` are set, ``on_timeout``
        fires (once, from an event-loop timer) if the flight is still
        running when the deadline expires — the future itself is left
        to the caller's policy, since a hung process future can never
        be cancelled cleanly.
        """
        if self._executor is None or not self.alive:
            self.restart(reason="submit on broken pool")
        try:
            raw = self._executor.submit(fn, arg)
        except (BrokenProcessPool, RuntimeError):
            self.restart(reason="submit raised")
            raw = self._executor.submit(fn, arg)
        future = asyncio.wrap_future(raw)
        timer = None
        if deadline_s is not None and on_timeout is not None:
            timer = asyncio.get_running_loop().call_later(
                deadline_s, self._expire, future, on_timeout)
        self._flights[future] = timer
        future.add_done_callback(self._untrack)
        return future

    def _untrack(self, future: asyncio.Future) -> None:
        timer = self._flights.pop(future, None)
        if timer is not None:
            timer.cancel()

    def _expire(self, future: asyncio.Future,
                on_timeout: Callable[[], None]) -> None:
        # The future may have completed in this loop iteration, ahead
        # of its (already scheduled) done-callback.
        if future.done():
            return
        self._flights[future] = None
        on_timeout()

    # -- observability -------------------------------------------------

    def describe(self) -> dict:
        return {
            "alive": self.alive,
            "restarts": self.restarts,
            "supervised_inflight": len(self._flights),
            "watching": any(timer is not None
                            for timer in self._flights.values()),
        }
