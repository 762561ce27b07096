"""Per-point deadlines of the serve scheduler.

Each in-flight execution carries its own ``point_timeout`` timer. The
first test drives a *real* worker pool through the whole deadline
path — hung worker, timer fires, pool killed and respawned, next job
served — because a thread pool cannot be killed and its restart is a
no-op. The others pin the timer bookkeeping on a thread pool, where
completion timing is controlled by the test.
"""

import asyncio
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import e6000_config
from repro.serve.jobs import JobSpec
from repro.serve.scheduler import Scheduler
from repro.sim.sweep import SweepPoint
from repro.smp.metrics import SimulationResult

SUPERVISOR_KEYS = {"alive", "restarts", "supervised_inflight",
                   "watching"}


def _result(point):
    return SimulationResult(
        workload=point.workload, num_cpus=2, cycles=100_000 + point.seed,
        per_cpu_cycles=[100_000 + point.seed, 99_000], stats={})


def _hang_on_seed_7(point):
    """Pool worker runner: seed 7 hangs far past any deadline."""
    if point.seed == 7:
        time.sleep(60)
    return _result(point), 0.001


def _kill_self(_arg):
    os.kill(os.getpid(), signal.SIGKILL)


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def spec(seeds):
    config = e6000_config(num_processors=2)
    return JobSpec(tenant="t", weight=1,
                   points=tuple(SweepPoint("fft", config, scale=0.05,
                                           seed=seed)
                                for seed in seeds))


async def wait_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, \
            "condition never became true"
        await asyncio.sleep(0.005)


def supervisor_state(scheduler):
    return scheduler.metrics()["resilience"]["supervisor"]


def test_hung_point_kills_its_worker_and_the_next_job_is_served():
    async def scenario():
        scheduler = Scheduler(max_workers=1, warmup=False,
                              runner=_hang_on_seed_7, retries=0,
                              point_timeout=0.3)
        await scheduler.start()
        try:
            hung = scheduler.submit(spec([7]))
            pids = list(scheduler.pool._executor._processes)
            assert len(pids) == 1
            await wait_until(lambda: hung.terminal)
            assert hung.state == "failed"
            assert hung.errors[0].startswith("TimeoutError")
            assert scheduler.counters["serve.worker_restarts"] == 1
            await wait_until(lambda: not _pid_alive(pids[0]))
            served = scheduler.submit(spec([1]))
            await wait_until(lambda: served.terminal)
            assert served.state == "done"
            metrics = scheduler.metrics()
            assert metrics["schema_version"] == 3
            assert set(supervisor_state(scheduler)) == SUPERVISOR_KEYS
            assert supervisor_state(scheduler)["restarts"] == 1
            assert supervisor_state(scheduler)["alive"] is True
        finally:
            await scheduler.drain(timeout=5.0)
    asyncio.run(scenario())


def test_a_self_healing_submit_counts_as_a_worker_restart():
    async def scenario():
        scheduler = Scheduler(max_workers=1, warmup=False,
                              runner=_hang_on_seed_7)
        await scheduler.start()
        try:
            with pytest.raises(BrokenProcessPool):
                await asyncio.wrap_future(
                    scheduler.pool.submit(_kill_self, None))
            job = scheduler.submit(spec([1]))
            assert scheduler.counters["serve.worker_restarts"] == 1
            await wait_until(lambda: job.terminal)
            assert job.state == "done"
        finally:
            await scheduler.drain(timeout=5.0)
    asyncio.run(scenario())


class _Gated:
    def __init__(self):
        self.gate = threading.Semaphore(0)

    def __call__(self, point):
        assert self.gate.acquire(timeout=10), "never released"
        return _result(point), 0.001


def test_completed_point_disarms_its_timer_immediately():
    async def scenario():
        runner = _Gated()
        executor = ThreadPoolExecutor(max_workers=1)
        scheduler = Scheduler(max_workers=1, executor=executor,
                              runner=runner, point_timeout=0.2)
        try:
            job = scheduler.submit(spec([1]))
            assert supervisor_state(scheduler) == {
                "alive": True, "restarts": 0,
                "supervised_inflight": 1, "watching": True}
            runner.gate.release()
            await wait_until(lambda: job.terminal)
            # No sleep: the done-callback retired the execution.
            assert supervisor_state(scheduler)["watching"] is False
            assert supervisor_state(scheduler)[
                "supervised_inflight"] == 0
            await asyncio.sleep(0.3)
            assert job.state == "done"
            assert scheduler.counters["serve.points_failed"] == 0
        finally:
            runner.gate.release(2)
            executor.shutdown(wait=False)
    asyncio.run(scenario())


def test_overdue_point_times_out_exactly_once():
    async def scenario():
        runner = _Gated()
        executor = ThreadPoolExecutor(max_workers=1)
        scheduler = Scheduler(max_workers=1, executor=executor,
                              runner=runner, retries=0,
                              point_timeout=0.03)
        try:
            job = scheduler.submit(spec([1]))
            await asyncio.sleep(0.2)
            failed = [event for event in job.events
                      if event["name"] == "point_failed"]
            assert len(failed) == 1
            assert "0.03s deadline" in failed[0]["args"]["error"]
            assert scheduler.counters["serve.points_failed"] == 1
            assert supervisor_state(scheduler)["watching"] is False
            runner.gate.release()
            await asyncio.sleep(0.05)
            assert scheduler.counters["serve.points_failed"] == 1
        finally:
            runner.gate.release(2)
            executor.shutdown(wait=False)
    asyncio.run(scenario())
