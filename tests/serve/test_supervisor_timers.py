"""Per-flight deadline timers of the worker supervisor.

The first test drives a *real* process pool through the whole
deadline path — hung worker, timer fires, pool killed and respawned,
next submit served — because a thread pool cannot be killed and its
``restart()`` is a no-op. The others pin the timer bookkeeping on a
thread pool, where completion timing is controlled by the test.
"""

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.serve.supervisor import WorkerSupervisor


def _echo(value):
    return value


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


async def _wait_until(predicate, timeout):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() >= deadline:
            return False
        await asyncio.sleep(0.01)
    return True


def test_deadline_kills_hung_worker_and_respawns_pool():
    async def scenario():
        loop = asyncio.get_running_loop()
        supervisor = WorkerSupervisor(max_workers=1, warmup=False)
        await supervisor.start()
        fired = []

        def on_timeout():
            fired.append(loop.time())
            supervisor.restart(reason="deadline", force=True)
        try:
            submitted = loop.time()
            hung = supervisor.submit(time.sleep, 60, deadline_s=0.3,
                                     on_timeout=on_timeout)
            pids = list(supervisor.executor._processes)
            assert len(pids) == 1
            assert await _wait_until(lambda: fired, timeout=2.0)
            assert fired[0] - submitted < 2.0
            assert supervisor.restarts == 1
            assert await _wait_until(lambda: not _pid_alive(pids[0]),
                                     timeout=5.0), "hung worker lives"
            # The abandoned future settles with the killed pool.
            await asyncio.wait({hung}, timeout=5.0)
            assert hung.done()
            assert await supervisor.submit(_echo, 7) == 7
            assert fired == [fired[0]]  # exactly once
        finally:
            supervisor.stop()
    asyncio.run(scenario())


def test_completed_flight_disarms_its_timer_immediately():
    async def scenario():
        pool = ThreadPoolExecutor(max_workers=1)
        supervisor = WorkerSupervisor(executor=pool)
        gate = threading.Semaphore(0)
        fired = []
        try:
            future = supervisor.submit(
                lambda _arg: gate.acquire(timeout=10), None,
                deadline_s=0.2, on_timeout=lambda: fired.append(True))
            assert supervisor.describe()["watching"] is True
            gate.release()
            assert await future is True
            # No sleep: the done-callback runs before the awaiter.
            assert supervisor.describe()["watching"] is False
            assert supervisor.describe()["supervised_inflight"] == 0
            await asyncio.sleep(0.3)
            assert fired == []
        finally:
            gate.release()
            supervisor.stop()
            pool.shutdown(wait=False)
    asyncio.run(scenario())


def test_raising_callback_does_not_stop_other_deadlines():
    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(
            lambda _loop, context: errors.append(context["exception"]))
        pool = ThreadPoolExecutor(max_workers=2)
        supervisor = WorkerSupervisor(executor=pool)
        gate = threading.Semaphore(0)
        fired = []

        def explode():
            raise RuntimeError("policy bug")
        try:
            futures = [
                supervisor.submit(lambda _arg: gate.acquire(timeout=10),
                                  None, deadline_s=0.05,
                                  on_timeout=explode),
                supervisor.submit(lambda _arg: gate.acquire(timeout=10),
                                  None, deadline_s=0.1,
                                  on_timeout=lambda: fired.append(True)),
            ]
            assert await _wait_until(lambda: fired, timeout=2.0)
            assert [type(error) for error in errors] == [RuntimeError]
            gate.release(2)
            await asyncio.gather(*futures)
        finally:
            gate.release(2)
            supervisor.stop()
            pool.shutdown(wait=False)
    asyncio.run(scenario())
