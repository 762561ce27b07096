"""The sweep-service scheduler: fair queue + warm pool + dedup.

One :class:`Scheduler` owns all the serving state and is driven
entirely from a single asyncio event loop:

- **admission** — :meth:`Scheduler.submit` validates the per-tenant
  queued-point budget (backpressure: a job that would exceed it is
  rejected whole with :class:`~repro.errors.BackpressureError`,
  HTTP 429) and enqueues every point on the weighted fair queue;
- **dispatch** — whenever a worker slot is free, the point from the
  lowest-virtual-time tenant is popped. Before costing a slot it is
  checked against the shared :class:`~repro.sim.sweep.ResultCache`
  (cross-job *and* cross-run reuse) and against the in-flight table
  keyed on :func:`~repro.sim.sweep.point_key` (two tenants asking for
  the same point share one execution — both get the result, and the
  bill for the slot is paid once);
- **execution** — points run on a **warm pool**: one
  :class:`~repro.sim.pool.WorkerPool` (``forkserver`` workers) warmed
  at :meth:`start` and reused for the server's whole life, with
  warmup tasks that pre-import the simulator in every worker, so
  repeated sweeps never pay interpreter spawn + import + AES
  key-schedule startup again (the ``serving`` section of
  ``BENCH_engine.json`` measures the win as the median warm/cold
  ratio of alternating pairs, each warm leg on a freshly booted
  server with an empty cache);
- **completion** — results are stored in the cache (atomic publish;
  see ResultCache) and fanned out to every subscribed job; a job
  whose last point lands becomes ``done`` (or ``failed`` if any
  point errored).

Resilience (docs/resilience.md): a dead worker
(``BrokenProcessPool``) or a point past its ``point_timeout``
deadline — one event-loop timer armed on the point's in-flight
:class:`_Execution` — triggers kill-and-respawn of the pool and the
affected points re-enter the fair queue with seeded exponential
backoff + jitter (``serve.retries``). A point that keeps failing is
**quarantined** after ``quarantine_after`` consecutive failures
(``serve.quarantined_points``): it fails fast with the recorded
error, poisoning neither its job's other points nor other tenants.
Every job admission, cancellation and terminal state is appended to
the :class:`~repro.serve.journal.JobJournal` WAL (when configured), so
a crashed server can :meth:`resume` incomplete jobs — completed points
short-circuit through the cache, only genuinely unfinished work
re-executes.

Cancellation (:meth:`cancel`) drops the job's *queued* points and
unsubscribes it from in-flight ones; an execution whose subscribers
all cancelled still runs to completion and its result is cached —
simulations are deterministic and paid-for work is worth keeping.
:meth:`drain` stops admission (503), waits for every accepted job to
reach a terminal state (up to an optional timeout — the journal
keeps whatever didn't finish), then shuts the pool down.

Progress is recorded per job as Chrome trace events (``cat:
"serve"``, validated against ``TRACE_EVENT_SCHEMA``) — the NDJSON
stream the HTTP layer serves is exactly this list.
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import BackpressureError, ServeError
from ..sim.pool import WorkerPool, serve_context
from ..sim.sweep import PointRunner, RecordingStore, ResultCache, \
    SweepPoint, backoff_delay, point_key
from .fairqueue import WeightedFairQueue
from .jobs import JobSpec, job_request_dict, parse_job_request, \
    result_to_dict
from .journal import JobJournal

#: job lifecycle states (terminal: done / failed / cancelled)
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def _warm_worker(_arg) -> int:
    """Run one micro-simulation so the worker has imported every hot
    module and built its first system before real points arrive."""
    from ..config import SystemConfig
    from ..sim.sweep import build_system
    from ..workloads.registry import generate
    workload = generate("fft", 1, scale=0.01, seed=0)
    return build_system(SystemConfig(num_processors=1)).run(
        workload).cycles


class Job:
    """One accepted submission and everything observable about it."""

    def __init__(self, spec: JobSpec, serial: int):
        self.id = f"job-{serial:06d}"
        self.serial = serial
        self.spec = spec
        self.state = "queued"
        count = len(spec.points)
        self.results: List[Optional[dict]] = [None] * count
        self.errors: List[Optional[str]] = [None] * count
        self.pending = count
        self.created_s = time.time()
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.events: List[dict] = []
        self.new_event = asyncio.Event()
        #: indexes failed by the poisoned-point circuit breaker
        self.quarantined_indexes: Set[int] = set()

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @property
    def completed(self) -> int:
        return sum(1 for result in self.results if result is not None)

    def describe(self) -> dict:
        return {
            "id": self.id,
            "tenant": self.spec.tenant,
            "weight": self.spec.weight,
            "state": self.state,
            "points": len(self.spec.points),
            "completed": self.completed,
            "failed": sum(1 for error in self.errors
                          if error is not None),
            "quarantined": sorted(self.quarantined_indexes),
            "created_s": round(self.created_s, 3),
            "started_s": None if self.started_s is None
            else round(self.started_s, 3),
            "finished_s": None if self.finished_s is None
            else round(self.finished_s, 3),
        }


class _QueuedPoint:
    """One (job, point index) awaiting dispatch or an in-flight result."""

    __slots__ = ("job", "index", "point", "key")

    def __init__(self, job: Job, index: int, point: SweepPoint,
                 key: str):
        self.job = job
        self.index = index
        self.point = point
        self.key = key


class _Execution:
    """One running point and the (job, index) pairs wanting its result."""

    __slots__ = ("key", "point", "subscribers", "started_us",
                 "settled", "timer")

    def __init__(self, key: str, point: SweepPoint, started_us: int):
        self.key = key
        self.point = point
        self.subscribers: Set[Tuple[Job, int]] = set()
        self.started_us = started_us
        # An execution settles exactly once: either its future
        # completes or its deadline timer declares it timed out —
        # whichever comes second is ignored (the slot was already
        # refunded, the subscribers already routed).
        self.settled = False
        #: the armed ``point_timeout`` timer, until the execution
        #: settles
        self.timer: Optional[asyncio.TimerHandle] = None

    @property
    def base_key(self) -> str:
        return self.key[:-4] if self.key.endswith(":rec") else self.key


class Scheduler:
    """Fair-queued, deduplicating, self-healing executor of sweep jobs.

    ``executor``/``runner`` are injectable for tests (a thread pool
    plus a controllable runner gives deterministic contention); the
    production path is a warm :class:`~repro.sim.pool.WorkerPool`
    running :class:`repro.sim.sweep.PointRunner` (record jobs through
    a recording ``PointRunner``; with ``checkpoint_dir`` both runners
    fork from one store).
    ``journal`` (a :class:`JobJournal` or a path) turns on the
    durable WAL; ``point_timeout`` arms the per-point
    deadline; ``retries``/``backoff_s``/``seed`` shape the seeded
    retry schedule and ``quarantine_after`` the circuit breaker.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 max_workers: int = 2,
                 max_queued_per_tenant: int = 1024,
                 executor=None, runner=None, warmup: bool = True,
                 record_dir: Optional[Union[str, Path]] = None,
                 record_runner=None,
                 journal: Optional[Union[JobJournal, str, Path]] = None,
                 point_timeout: Optional[float] = None,
                 retries: int = 2, backoff_s: float = 0.05,
                 seed: int = 0, quarantine_after: int = 5,
                 checkpoint_dir: Optional[Union[str, Path]] = None):
        self.cache = cache
        self.record_dir = None if record_dir is None else Path(record_dir)
        self._recordings = None if record_dir is None \
            else RecordingStore(record_dir)
        self.checkpoint_dir = None if checkpoint_dir is None \
            else Path(checkpoint_dir)
        # Prefix-sharing execution (docs/checkpointing.md): workers
        # fork plain and record points alike from the shared disk
        # store, as sweeps do, instead of re-simulating warm-up.
        # Checkpoints are keyed by prefix fingerprint, not tenant, so
        # they are shared across tenants like the result cache.
        checkpoints = None
        if checkpoint_dir is not None:
            from ..sim.checkpoint import CheckpointStore
            checkpoints = CheckpointStore(checkpoint_dir)
        if record_runner is None and record_dir is not None:
            record_runner = PointRunner(record_dir=str(record_dir),
                                        checkpoints=checkpoints)
        self._record_runner = record_runner
        self.max_workers = max(1, max_workers)
        self.max_queued_per_tenant = max_queued_per_tenant
        if journal is None or isinstance(journal, JobJournal):
            self.journal = journal
        else:
            self.journal = JobJournal(journal)
        self.point_timeout = point_timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.seed = seed
        self.quarantine_after = max(1, quarantine_after)
        self.queue = WeightedFairQueue()
        #: every admitted job, in admission order
        self.jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, _Execution] = {}
        self._pool = WorkerPool(self.max_workers, serve_context(),
                                executor)
        self._warmup = warmup
        # An injected executor is ready as handed in; an owned pool
        # once start() has run.
        self._started = executor is not None
        self._runner = runner if runner is not None \
            else PointRunner(checkpoints=checkpoints)
        self._running = 0
        self._serial = 0
        self._draining = False
        #: consecutive failures per point key (reset on success)
        self._failures: Dict[str, int] = {}
        #: quarantined point key -> the final error served for it
        self.quarantined: Dict[str, str] = {}
        self._retry_handles: Set[asyncio.TimerHandle] = set()
        self._pending_retries = 0
        # Created lazily inside the running loop: on Python 3.9 an
        # Event built before asyncio.run() binds to the wrong loop.
        self._idle: Optional[asyncio.Event] = None
        self._start_monotonic = time.monotonic()
        self.counters = {
            "serve.jobs_accepted": 0,
            "serve.jobs_rejected": 0,
            "serve.jobs_completed": 0,
            "serve.jobs_failed": 0,
            "serve.jobs_cancelled": 0,
            "serve.points_executed": 0,
            "serve.points_cache_hits": 0,
            "serve.points_deduped": 0,
            "serve.points_failed": 0,
            "serve.recordings_written": 0,
            "serve.retries": 0,
            "serve.worker_restarts": 0,
            "serve.journal_replays": 0,
            "serve.journal_skipped": 0,
            "serve.quarantined_points": 0,
            "serve.checkpoint_hits": 0,
            "serve.checkpoint_misses": 0,
            "serve.checkpoint_stores": 0,
        }
        #: per-tenant completed/failed point totals (metrics plane)
        self.tenant_counters: Dict[str, Dict[str, int]] = {}

    # -- lifecycle -----------------------------------------------------

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    async def start(self) -> "Scheduler":
        """Start the fork server, then warm every worker; returns self.

        Call this before the server starts accepting connections: it
        kicks the fork server to life while no connection FDs exist
        yet (see :func:`repro.sim.pool.serve_context`) — started any
        later, the long-lived fork server would inherit whatever
        sockets happen to be open and pin them forever.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._pool.kick)
        if self._warmup:
            await asyncio.gather(*(
                asyncio.wrap_future(self._pool.submit(_warm_worker, None))
                for _ in range(self.max_workers)))
        self._started = True
        return self

    def resume(self) -> List[Job]:
        """Replay the journal: re-admit every job that never reached
        a terminal state before the last shutdown/crash.

        Each resumed job keeps its original id and is re-journalled
        into the (rotated-fresh) WAL, so a second crash still
        recovers. Its points re-enter the fair queue where completed
        ones short-circuit through the shared cache — only work that
        genuinely never finished re-executes. Admission control is
        bypassed: this work was already accepted once.

        An unfinished entry the current wire format rejects (e.g. a
        config carrying a field this version removed) cannot be
        re-admitted; it is logged with its error on stderr and counted
        in ``serve.journal_skipped`` instead of vanishing silently.
        """
        if self.journal is None:
            return []
        resumed: List[Job] = []
        for entry in self.journal.replay_and_rotate():
            if not entry.incomplete:
                continue
            try:
                spec = parse_job_request(entry.payload)
            except ServeError as exc:
                self.counters["serve.journal_skipped"] += 1
                print(f"serve: not resuming journalled job "
                      f"{entry.job_id}: {exc}", file=sys.stderr)
                continue
            job = self._admit(spec, job_id=entry.job_id)
            self.counters["serve.journal_replays"] += 1
            self._emit(job, "job_resumed", "i",
                       {"job": job.id, "points": len(spec.points)})
            resumed.append(job)
        return resumed

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, wait for accepted work, stop the pool.

        With a ``timeout``, gives up waiting after that many seconds
        and returns False — incomplete jobs stay in the journal for
        a later ``--resume`` (drain-under-fire: a hung worker must
        not hold shutdown hostage).
        """
        self._draining = True
        drained = True
        try:
            if timeout is None:
                await self._idle_event().wait()
            else:
                await asyncio.wait_for(
                    self._idle_event().wait(), timeout)
        except asyncio.TimeoutError:
            drained = False
        for handle in list(self._retry_handles):
            handle.cancel()
        self._retry_handles.clear()
        self._pending_retries = 0
        # What is still in flight was given up on: no deadline of it
        # may fire after this.
        for execution in self._inflight.values():
            self._disarm(execution)
        self._pool.close()
        if self.journal is not None:
            self.journal.close()
        return drained

    def _is_idle(self) -> bool:
        return not self.queue and not self._inflight and \
            self._pending_retries == 0 and \
            all(job.terminal for job in self.jobs.values())

    def _idle_event(self) -> asyncio.Event:
        if self._idle is None:
            self._idle = asyncio.Event()
            if self._is_idle():
                self._idle.set()
        return self._idle

    # -- admission -----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit a job whole or reject it whole (backpressure)."""
        if self._draining:
            self.counters["serve.jobs_rejected"] += 1
            raise ServeError("server is draining", status=503)
        if spec.record and self._record_runner is None:
            self.counters["serve.jobs_rejected"] += 1
            raise ServeError(
                "job requests recordings but the server has no "
                "record directory (start with --record-dir)",
                status=400)
        queued = self.queue.depth(spec.tenant)
        budget = self.max_queued_per_tenant
        if queued + len(spec.points) > budget:
            self.counters["serve.jobs_rejected"] += 1
            raise BackpressureError(
                f"tenant {spec.tenant!r} has {queued} points queued; "
                f"admitting {len(spec.points)} more would exceed the "
                f"budget of {budget}")
        return self._admit(spec)

    def _admit(self, spec: JobSpec,
               job_id: Optional[str] = None) -> Job:
        """Enqueue a validated job (fresh serial, or a resumed job's
        original id — the serial counter advances past it either way
        so ids never collide)."""
        if job_id is None:
            self._serial += 1
            serial = self._serial
        else:
            serial = int(job_id.rsplit("-", 1)[1])
            self._serial = max(self._serial, serial)
        job = Job(spec, serial)
        self.jobs[job.id] = job
        self.counters["serve.jobs_accepted"] += 1
        if self.journal is not None:
            self.journal.job_submitted(job.id, job_request_dict(
                spec.points, tenant=spec.tenant, weight=spec.weight,
                record=spec.record))
        if self._idle is not None:
            self._idle.clear()
        self._emit(job, "job_accepted", "i",
                   {"job": job.id, "tenant": spec.tenant,
                    "points": len(spec.points)})
        for index, point in enumerate(spec.points):
            self.queue.push(spec.tenant,
                            _QueuedPoint(job, index, point,
                                         point_key(point)),
                            weight=spec.weight)
        self._pump()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: drop its queued points, unsubscribe it from
        shared executions (which run on — results are still cached)."""
        job = self.get(job_id)
        if job.terminal:
            return job
        self.queue.remove(lambda queued: queued.job is job)
        for execution in self._inflight.values():
            execution.subscribers = {
                (subscriber, index)
                for subscriber, index in execution.subscribers
                if subscriber is not job}
        self.counters["serve.jobs_cancelled"] += 1
        if self.journal is not None:
            self.journal.job_cancelled(job.id)
        self._finish_job(job, "cancelled")
        return job

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(f"no such job: {job_id}", status=404)
        return job

    def list_jobs(self, tenant: Optional[str] = None) -> List[Job]:
        return [job for job in self.jobs.values()
                if tenant is None or job.spec.tenant == tenant]

    # -- dispatch ------------------------------------------------------

    def _pump(self) -> None:
        """Dispatch queued points while worker slots are free.

        Cache hits, dedup attaches and quarantine fast-fails consume
        no slot, so one pump call drains any run of free work before
        blocking on capacity.
        """
        while self.queue and self._running < self.max_workers:
            tenant, queued = self.queue.pop()
            job = queued.job
            if job.terminal:
                continue  # cancelled between push and pop
            if job.state == "queued":
                job.state = "running"
                job.started_s = time.time()
            # Circuit breaker: a quarantined point fails fast with
            # its recorded error — no slot, no worker risk.
            if queued.key in self.quarantined:
                self.counters["serve.points_failed"] += 1
                self._fail_point(job, queued.index,
                                 self.quarantined[queued.key],
                                 quarantined=True)
                continue
            # Record-requesting points execute under a distinct key:
            # they must not attach to a plain execution (it would
            # leave no recording artifact behind).
            recording = job.spec.record
            exec_key = queued.key + ":rec" if recording else queued.key
            execution = self._inflight.get(exec_key)
            if execution is not None:
                self.counters["serve.points_deduped"] += 1
                execution.subscribers.add((job, queued.index))
                continue
            cached = self.cache.load(queued.point) \
                if self.cache is not None else None
            # A cache hit satisfies a record point only when its
            # recording artifact exists and verifies (recordings are
            # content-addressed by the same key, so reuse is sound; a
            # corrupt one is quarantined and the point re-executes).
            if cached is not None and (
                    not recording
                    or self._recordings.load_bytes(queued.key)
                    is not None):
                self.counters["serve.points_cache_hits"] += 1
                self._complete_point(job, queued.index,
                                     result_to_dict(cached),
                                     source="cache", dur_us=0)
                continue
            execution = _Execution(exec_key, queued.point,
                                   self._now_us())
            execution.subscribers.add((job, queued.index))
            self._inflight[exec_key] = execution
            self._running += 1
            runner = self._record_runner if recording else self._runner
            future = asyncio.wrap_future(
                self._pool.submit(runner, queued.point))
            # A submit on a broken pool respawns it: count that too.
            self.counters["serve.worker_restarts"] = self._pool.restarts
            if self.point_timeout is not None:
                execution.timer = asyncio.get_running_loop().call_later(
                    self.point_timeout, self._on_execution_timeout,
                    execution, future)
            future.add_done_callback(
                lambda done, execution=execution:
                self._on_execution_done(execution, done))

    def _disarm(self, execution: _Execution) -> None:
        if execution.timer is not None:
            execution.timer.cancel()
            execution.timer = None

    def _retire(self, execution: _Execution) -> None:
        """Refund the slot, disarm the deadline and drop the in-flight
        entry — once."""
        execution.settled = True
        self._disarm(execution)
        self._running -= 1
        self._inflight.pop(execution.key, None)

    def _restart_pool(self, force: bool = False) -> None:
        self._pool.restart(force=force)
        self.counters["serve.worker_restarts"] = self._pool.restarts

    def _on_execution_timeout(self, execution: _Execution,
                              future: asyncio.Future) -> None:
        """Deadline timer verdict: the point blew its deadline. The
        worker under it is presumed hung, so the whole pool is killed
        and respawned (a hung process future can never complete);
        other in-flight points die with it and take the retry path as
        worker-loss failures."""
        # The future may have completed in this loop iteration, ahead
        # of its (already scheduled) done-callback.
        if execution.settled or future.done():
            return
        self._retire(execution)
        error = ("TimeoutError: point exceeded the "
                 f"{self.point_timeout}s deadline")
        self._restart_pool(force=True)
        self._route_failure(execution, error)
        self._pump()
        self._check_idle()

    def _on_execution_done(self, execution: _Execution,
                           future) -> None:
        if execution.settled:
            # Timed out earlier; the slot is already refunded and the
            # subscribers rerouted. A straggler result that still
            # made it out of the dying pool is worth caching — the
            # retry then lands as a cache hit.
            try:
                result, _seconds, *extra = future.result()
            except BaseException:
                return
            self._merge_worker_counters(extra)
            if self.cache is not None:
                self.cache.store(execution.point, result)
            return
        self._retire(execution)
        dur_us = self._now_us() - execution.started_us
        try:
            result, _seconds, *extra = future.result()
        except BaseException as exc:
            # BrokenProcessPool (worker died) and CancelledError
            # (pool torn down under this future) mean worker loss,
            # not a bad point — restart the pool (idempotent: only a
            # genuinely broken pool is replaced) and retry.
            if isinstance(exc, asyncio.CancelledError):
                error = "CancelledError: worker pool restarted"
            else:
                error = f"{type(exc).__name__}: {exc}"
            self._restart_pool()
            self._route_failure(execution, error)
        else:
            self.counters["serve.points_executed"] += 1
            self._merge_worker_counters(extra)
            self._failures.pop(execution.base_key, None)
            if execution.key.endswith(":rec"):
                self.counters["serve.recordings_written"] += 1
            if self.cache is not None:
                self.cache.store(execution.point, result)
            payload = result_to_dict(result)
            for position, (job, index) in enumerate(sorted(
                    execution.subscribers,
                    key=lambda s: (s[0].serial, s[1]))):
                self._complete_point(
                    job, index, payload,
                    source="executed" if position == 0 else "dedup",
                    dur_us=dur_us)
        self._pump()
        self._check_idle()

    def _merge_worker_counters(self, extra) -> None:
        """Fold counter deltas a runner shipped back alongside its
        result (third tuple element, e.g. ``serve.checkpoint_*`` from
        a checkpointing :class:`repro.sim.sweep.PointRunner`) into
        the scheduler's counters. Two-tuple runners ship none."""
        for delta in extra:
            if not isinstance(delta, dict):
                continue
            for name, value in delta.items():
                self.counters[name] = \
                    self.counters.get(name, 0) + int(value)

    # -- retry / quarantine policy -------------------------------------

    def _route_failure(self, execution: _Execution,
                       error: str) -> None:
        """Decide what a failed execution means for its subscribers:
        quarantine the point, schedule a retry, or fail it for good."""
        key = execution.base_key
        self._failures[key] = self._failures.get(key, 0) + 1
        failures = self._failures[key]
        live = [(job, index) for job, index in sorted(
                    execution.subscribers,
                    key=lambda s: (s[0].serial, s[1]))
                if not job.terminal
                and job.results[index] is None
                and job.errors[index] is None]
        if failures >= self.quarantine_after:
            final = (f"quarantined after {failures} failed "
                     f"attempts: {error}")
            self.quarantined[key] = final
            self.counters["serve.quarantined_points"] += 1
            self.counters["serve.points_failed"] += 1
            for job, index in live:
                self._fail_point(job, index, final, quarantined=True)
        elif failures <= self.retries and live:
            self.counters["serve.retries"] += 1
            attempt = failures + 1
            for job, index in live:
                self._emit(job, "point_retry", "i",
                           {"index": index, "attempt": attempt,
                            "error": error}, tid=index)
            self._schedule_retry(execution, live)
        else:
            self.counters["serve.points_failed"] += 1
            for job, index in live:
                self._fail_point(job, index, error)

    def _backoff_delay(self, key: str, failures: int) -> float:
        return backoff_delay(self.backoff_s, failures, key, self.seed)

    def _schedule_retry(self, execution: _Execution,
                        pairs: List[Tuple[Job, int]]) -> None:
        delay = self._backoff_delay(execution.base_key,
                                    self._failures[execution.base_key])
        loop = asyncio.get_running_loop()
        self._pending_retries += 1
        handle_box: List[asyncio.TimerHandle] = []

        def fire() -> None:
            self._pending_retries -= 1
            if handle_box:
                self._retry_handles.discard(handle_box[0])
            for job, index in pairs:
                if job.terminal:
                    continue
                self.queue.push_front(
                    job.spec.tenant,
                    _QueuedPoint(job, index, execution.point,
                                 execution.base_key),
                    weight=job.spec.weight)
            self._pump()
            self._check_idle()

        handle = loop.call_later(delay, fire)
        handle_box.append(handle)
        self._retry_handles.add(handle)

    # -- point / job completion ----------------------------------------

    def _complete_point(self, job: Job, index: int, payload: dict,
                        source: str, dur_us: int) -> None:
        if job.terminal or job.results[index] is not None:
            return
        job.results[index] = payload
        job.pending -= 1
        self._tenant_entry(job.spec.tenant)["completed"] += 1
        self._emit(job, "point_done", "X",
                   {"index": index, "cycles": payload["cycles"],
                    "source": source},
                   dur_us=dur_us, tid=index)
        if job.pending == 0:
            self._finish_job(
                job, "failed" if any(error is not None
                                     for error in job.errors)
                else "done")

    def _fail_point(self, job: Job, index: int, error: str,
                    quarantined: bool = False) -> None:
        if job.terminal or job.errors[index] is not None:
            return
        job.errors[index] = error
        job.pending -= 1
        if quarantined:
            job.quarantined_indexes.add(index)
        self._tenant_entry(job.spec.tenant)["failed"] += 1
        self._emit(job, "point_failed", "i",
                   {"index": index, "error": error,
                    "quarantined": quarantined}, tid=index)
        if job.pending == 0:
            self._finish_job(job, "failed")

    def _finish_job(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_s = time.time()
        if state == "done":
            self.counters["serve.jobs_completed"] += 1
        elif state == "failed":
            self.counters["serve.jobs_failed"] += 1
        if self.journal is not None:
            self.journal.job_done(job.id, state)
        # Counter sample right before the terminal event, so a
        # Perfetto load of the job's stream shows the server-wide
        # serve.* counters at the moment the job finished (job_done
        # stays the stream's last event — pinned by tests).
        self._emit(job, "serve.counters", "C", {
            "queue_depth": len(self.queue),
            "inflight": len(self._inflight),
            "executed": self.counters["serve.points_executed"],
            "cache_hits": self.counters["serve.points_cache_hits"],
            "deduped": self.counters["serve.points_deduped"],
            "failed": self.counters["serve.points_failed"],
            "retries": self.counters["serve.retries"],
            "worker_restarts": self.counters["serve.worker_restarts"],
            "quarantined": self.counters["serve.quarantined_points"],
            "checkpoint_hits": self.counters["serve.checkpoint_hits"],
            "checkpoint_stores":
                self.counters["serve.checkpoint_stores"],
        })
        self._emit(job, "job_done", "i",
                   {"job": job.id, "state": state})
        self._check_idle()

    def _check_idle(self) -> None:
        if self._idle is not None and self._is_idle():
            self._idle.set()

    # -- progress events -----------------------------------------------

    def _now_us(self) -> int:
        return int((time.monotonic() - self._start_monotonic) * 1e6)

    def _emit(self, job: Job, name: str, phase: str, args: dict,
              dur_us: int = 0, tid: int = 0) -> None:
        event = {"name": name, "cat": "serve", "ph": phase,
                 "ts": self._now_us(), "pid": job.serial, "tid": tid,
                 "args": args}
        if phase == "X":
            event["dur"] = max(0, dur_us)
        elif phase == "i":
            event["s"] = "p"
        job.events.append(event)
        job.new_event.set()

    # -- recordings ----------------------------------------------------

    def recording_bytes(self, job_id: str, index: int) -> bytes:
        """The verified recording of one point of a record job; 404s
        (ServeError) when the job didn't record, the index is out of
        range, or the artifact isn't written yet — or failed
        verification, in which case it is quarantined and resubmitting
        the job records the point afresh."""
        job = self.get(job_id)
        if not job.spec.record or self._recordings is None:
            raise ServeError(
                f"job {job_id} did not request recordings", status=404)
        if not 0 <= index < len(job.spec.points):
            raise ServeError(
                f"job {job_id} has no point {index}", status=404)
        body = self._recordings.load_bytes(
            point_key(job.spec.points[index]))
        if body is None:
            raise ServeError(
                f"recording for job {job_id} point {index} is not "
                "available yet", status=404)
        return body

    # -- observability -------------------------------------------------

    def ready(self) -> Tuple[bool, str]:
        """Readiness verdict for ``/v1/readyz``: can this server
        accept and run a job right now?"""
        if self._draining:
            return False, "draining"
        if not self._started:
            return False, "worker pool not started"
        if not self._pool.alive:
            return False, "worker pool broken"
        return True, "ok"

    def _tenant_entry(self, tenant: str) -> Dict[str, int]:
        return self.tenant_counters.setdefault(
            tenant, {"completed": 0, "failed": 0})

    def metrics(self) -> dict:
        """The ``/v1/metrics`` payload (docs/serving.md documents the
        schema): queue depth, worker/warm-pool state, cache hit rate,
        per-tenant queue depth and throughput, recording plane, and
        the resilience plane (journal / retries / quarantine)."""
        uptime_s = time.monotonic() - self._start_monotonic
        hits = self.counters["serve.points_cache_hits"]
        executed = self.counters["serve.points_executed"]
        lookups = hits + executed
        ckpt_hits = self.counters["serve.checkpoint_hits"]
        ckpt_misses = self.counters["serve.checkpoint_misses"]
        ckpt_probes = ckpt_hits + ckpt_misses
        depths = self.queue.depths()
        tenants = {}
        for tenant in sorted(set(depths) | set(self.tenant_counters)):
            entry = self.tenant_counters.get(
                tenant, {"completed": 0, "failed": 0})
            tenants[tenant] = {
                "queued": depths.get(tenant, 0),
                "completed": entry["completed"],
                "failed": entry["failed"],
                "throughput_per_s": round(
                    entry["completed"] / uptime_s, 6)
                if uptime_s > 0 else 0.0,
            }
        return {
            "schema_version": 4,
            "uptime_s": round(uptime_s, 3),
            "draining": self._draining,
            "queue": {
                "depth": len(self.queue),
                "per_tenant": depths,
            },
            "workers": {
                "max": self.max_workers,
                "busy": self._running,
                "inflight": len(self._inflight),
                "warm": self._started,
            },
            "cache": {
                "enabled": self.cache is not None,
                "hits": hits,
                "executed": executed,
                "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
            },
            "recordings": {
                "enabled": self._record_runner is not None,
                "written": self.counters["serve.recordings_written"],
            },
            "checkpoints": {
                "enabled": self.checkpoint_dir is not None,
                "dir": None if self.checkpoint_dir is None
                else str(self.checkpoint_dir),
                "hits": ckpt_hits,
                "misses": ckpt_misses,
                "stores": self.counters["serve.checkpoint_stores"],
                "hit_rate": round(ckpt_hits / ckpt_probes, 6)
                if ckpt_probes else 0.0,
            },
            "resilience": {
                "journal": {
                    "enabled": self.journal is not None,
                    "path": None if self.journal is None
                    else str(self.journal.path),
                    "records": 0 if self.journal is None
                    else self.journal.records_written,
                },
                "point_timeout_s": self.point_timeout,
                "retries": self.counters["serve.retries"],
                "pending_retries": self._pending_retries,
                "worker_restarts":
                    self.counters["serve.worker_restarts"],
                "journal_replays":
                    self.counters["serve.journal_replays"],
                "journal_skipped":
                    self.counters["serve.journal_skipped"],
                "quarantined_points": sorted(self.quarantined),
            },
            "tenants": tenants,
            "counters": dict(self.counters),
        }
