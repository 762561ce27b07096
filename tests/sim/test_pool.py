"""The one worker pool of sweeps, fault campaigns and the serve plane.

These drive *real* worker processes — a worker genuinely SIGKILLs
itself or hangs — because a thread pool cannot break the way these
paths exist to survive (run with REPRO_SWEEP_PARALLEL=1 in CI).
"""

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import e6000_config
from repro.sim import sweep
from repro.sim.pool import WorkerPool
from repro.sim.sweep import SweepPoint, SweepTimings, run_sweep


def _kill_self(_arg):
    """Pool worker target: die the way an OOM kill looks."""
    os.kill(os.getpid(), signal.SIGKILL)


def _echo(value):
    return value


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_killed_worker_breaks_then_restart_heals():
    with WorkerPool(1) as pool:
        with pytest.raises(BrokenProcessPool):
            pool.submit(_kill_self, None).result()
        assert not pool.alive
        assert pool.restart() is True
        assert pool.restart() is False  # idempotent per breakage
        assert pool.alive
        assert pool.restarts == 1
        assert pool.submit(_echo, 42).result() == 42


def test_submit_on_broken_pool_self_heals():
    with WorkerPool(1) as pool:
        with pytest.raises(BrokenProcessPool):
            pool.submit(_kill_self, None).result()
        # No explicit restart: submit restores the pool.
        assert pool.submit(_echo, 7).result() == 7
        assert pool.restarts == 1
    assert multiprocessing.active_children() == []


def test_injected_executor_is_never_replaced_or_killed():
    executor = ThreadPoolExecutor(max_workers=1)
    try:
        pool = WorkerPool(1, executor=executor)
        assert pool.restart(force=True) is False
        assert pool._executor is executor
        pool.close()
        assert executor.submit(_echo, 3).result() == 3
    finally:
        executor.shutdown(wait=False)


def test_close_kills_a_hung_worker():
    pool = WorkerPool(1)
    hung = pool.submit(time.sleep, 60)
    pids = list(pool._executor._processes)
    assert len(pids) == 1
    start = time.monotonic()
    pool.close()
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []
    assert not _pid_alive(pids[0])
    assert hung.done()
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(_echo, 1)


def test_a_worker_death_between_submits_fails_only_its_point(
        monkeypatch):
    """A worker that dies before every unit is submitted breaks the
    executor under the sweep's submit loop. The next submit heals the
    pool, so the sweep records one failed point instead of raising a
    bare ``BrokenProcessPool``: the second submit is held until the
    first unit's worker has died, which makes the race certain."""
    parent = os.getpid()
    real_run_point = sweep.run_point
    real_submit = ProcessPoolExecutor.submit
    first = []

    def run_point(point):
        if point.seed == 0 and os.getpid() != parent:
            os._exit(3)
        return real_run_point(point)

    def submit(self, fn, *args, **kwargs):
        if not first:
            first.append(self)
        elif self is first[0]:
            deadline = time.monotonic() + 30
            while not self._broken:
                assert time.monotonic() < deadline, "worker never died"
                time.sleep(0.01)
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(sweep, "run_point", run_point)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    config = e6000_config(num_processors=2, l2_mb=1)
    points = [SweepPoint("fft", config, scale=0.05, seed=seed)
              for seed in (0, 1)]
    timings = SweepTimings()
    results = run_sweep(points, parallel=True, max_workers=2,
                        retries=0, on_error="none", timings=timings)
    assert results[0] is None
    assert results[1] is not None
    assert timings.points_failed == 1
    assert multiprocessing.active_children() == []
