"""Self-healing scheduler: retries, quarantine, deadlines, resume.

The tests inject thread-pool executors and deterministic runners
(same idiom as test_scheduler.py) so failure timing is controlled by
the test. Real worker processes are driven in tests/sim/test_pool.py
and tests/serve/test_point_deadlines.py.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.config import e6000_config
from repro.serve.jobs import JobSpec
from repro.serve.journal import JobJournal
from repro.serve.scheduler import Scheduler
from repro.sim.sweep import ResultCache, SweepPoint
from repro.smp.metrics import SimulationResult


def make_result(point):
    return SimulationResult(
        workload=point.workload, num_cpus=2,
        cycles=100_000 + point.seed,
        per_cpu_cycles=[100_000 + point.seed, 99_000],
        stats={"bus.transactions": 10 + point.seed})


class FlakyRunner:
    """Fails each point's first ``fail_times`` executions, then
    succeeds — the transient fault retries exist for."""

    def __init__(self, fail_times=1):
        self.fail_times = fail_times
        self.attempts = {}
        self.order = []

    def __call__(self, point):
        self.order.append(point.seed)
        count = self.attempts.get(point.seed, 0) + 1
        self.attempts[point.seed] = count
        if count <= self.fail_times:
            raise ValueError(f"flaky {point.seed} attempt {count}")
        return make_result(point), 0.001


class PoisonRunner:
    """Fails every time: the poisoned point the circuit breaker is
    for."""

    def __init__(self):
        self.calls = 0

    def __call__(self, point):
        self.calls += 1
        raise ValueError("boom")


class GatedRunner:
    """Blocks until released (copied shape from test_scheduler.py)."""

    def __init__(self):
        self._gate = threading.Semaphore(0)
        self.order = []

    def __call__(self, point):
        self.order.append(point.seed)
        assert self._gate.acquire(timeout=10), "never released"
        return make_result(point), 0.001

    def release(self, count=1):
        for _ in range(count):
            self._gate.release()


def spec(tenant, seeds, weight=1):
    config = e6000_config(num_processors=2)
    return JobSpec(tenant=tenant, weight=weight,
                   points=tuple(SweepPoint("fft", config, scale=0.05,
                                           seed=seed)
                                for seed in seeds))


async def wait_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, \
            "condition never became true"
        await asyncio.sleep(0.005)


def make_scheduler(runner, cache=None, max_workers=1, **kwargs):
    pool = ThreadPoolExecutor(max_workers=max_workers)
    scheduler = Scheduler(cache=cache, max_workers=max_workers,
                          executor=pool, runner=runner,
                          backoff_s=0.001, **kwargs)
    return scheduler, pool


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        async def scenario():
            runner = FlakyRunner(fail_times=1)
            scheduler, pool = make_scheduler(runner, retries=2)
            try:
                job = scheduler.submit(spec("t", [7]))
                await wait_until(lambda: job.terminal)
                assert job.state == "done"
                assert job.errors == [None]
                assert runner.attempts[7] == 2
                assert scheduler.counters["serve.retries"] == 1
                # Retry attempts are not final failures.
                assert scheduler.counters["serve.points_failed"] == 0
                retry_events = [event for event in job.events
                                if event["name"] == "point_retry"]
                assert len(retry_events) == 1
                assert retry_events[0]["args"]["attempt"] == 2
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_retry_exhaustion_keeps_original_error(self):
        async def scenario():
            runner = PoisonRunner()
            scheduler, pool = make_scheduler(runner, retries=1,
                                             quarantine_after=50)
            try:
                job = scheduler.submit(spec("t", [7]))
                await wait_until(lambda: job.terminal)
                assert job.state == "failed"
                assert job.errors[0] == "ValueError: boom"
                assert runner.calls == 2  # first try + one retry
                assert scheduler.counters["serve.retries"] == 1
                assert scheduler.counters["serve.points_failed"] == 1
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_backoff_is_seeded_and_jittered(self):
        async def scenario():
            same_a, _ = make_scheduler(PoisonRunner(), seed=1)
            same_b, _ = make_scheduler(PoisonRunner(), seed=1)
            other, _ = make_scheduler(PoisonRunner(), seed=2)
            delays_a = [same_a._backoff_delay("k", n)
                        for n in (1, 2, 3)]
            delays_b = [same_b._backoff_delay("k", n)
                        for n in (1, 2, 3)]
            delays_c = [other._backoff_delay("k", n)
                        for n in (1, 2, 3)]
            assert delays_a == delays_b      # seeded: reproducible
            assert delays_a != delays_c      # ...not constant
            # Exponential floor with bounded jitter per attempt.
            for attempt, delay in enumerate(delays_a, start=1):
                floor = 0.001 * 2 ** (attempt - 1)
                assert floor <= delay <= 2 * floor
            # Decorrelated across points: same attempt, other key.
            assert same_a._backoff_delay("k", 1) != \
                same_a._backoff_delay("j", 1)
        asyncio.run(scenario())


class TestQuarantine:
    def test_poisoned_point_quarantined_after_threshold(self):
        async def scenario():
            runner = PoisonRunner()
            scheduler, pool = make_scheduler(runner, retries=0,
                                             quarantine_after=2)
            try:
                first = scheduler.submit(spec("t", [7]))
                await wait_until(lambda: first.terminal)
                assert first.errors[0] == "ValueError: boom"
                assert first.describe()["quarantined"] == []

                second = scheduler.submit(spec("t", [7]))
                await wait_until(lambda: second.terminal)
                assert second.errors[0].startswith(
                    "quarantined after 2 failed attempts:")
                assert "ValueError: boom" in second.errors[0]
                assert second.describe()["quarantined"] == [0]
                assert scheduler.counters[
                    "serve.quarantined_points"] == 1

                # The breaker fails fast: no third execution.
                third = scheduler.submit(spec("t", [7]))
                await wait_until(lambda: third.terminal)
                assert third.state == "failed"
                assert runner.calls == 2
                assert third.describe()["quarantined"] == [0]
                assert scheduler.metrics()["resilience"][
                    "quarantined_points"] != []
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_success_resets_failure_count(self):
        async def scenario():
            runner = FlakyRunner(fail_times=1)
            scheduler, pool = make_scheduler(runner, retries=1,
                                             quarantine_after=2)
            try:
                job = scheduler.submit(spec("t", [7]))
                await wait_until(lambda: job.terminal)
                assert job.state == "done"
                # One failure happened, but the success wiped the
                # count — the point is nowhere near quarantine.
                again = scheduler.submit(spec("u", [7]))
                await wait_until(lambda: again.terminal)
                assert again.state == "done"
                assert scheduler.counters[
                    "serve.quarantined_points"] == 0
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())


class TestPointDeadline:
    def test_hung_point_fails_with_timeout(self):
        async def scenario():
            runner = GatedRunner()  # never released: a hung point
            scheduler, pool = make_scheduler(
                runner, retries=0, point_timeout=0.05)
            try:
                job = scheduler.submit(spec("t", [7]))
                await wait_until(lambda: job.terminal)
                assert job.state == "failed"
                assert "TimeoutError" in job.errors[0]
                assert "0.05s deadline" in job.errors[0]
                assert scheduler.counters["serve.points_failed"] == 1
            finally:
                runner.release(5)  # unwedge the pool thread
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_deadline_does_not_fire_for_fast_points(self):
        async def scenario():
            runner = FlakyRunner(fail_times=0)
            scheduler, pool = make_scheduler(
                runner, point_timeout=30.0)
            try:
                job = scheduler.submit(spec("t", [1, 2]))
                await wait_until(lambda: job.terminal)
                assert job.state == "done"
                assert scheduler.counters["serve.points_failed"] == 0
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())


class TestResume:
    def test_resume_reexecutes_only_unfinished_points(self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path / "cache")
            journal_dir = tmp_path / "state"

            # First life: finish point 0, then "crash" (no drain —
            # the journal is abandoned mid-job like a SIGKILL).
            crashed = GatedRunner()
            first, first_pool = make_scheduler(
                crashed, cache=cache, journal=journal_dir)
            job = first.submit(spec("t", [0, 1]))
            crashed.release(1)
            await wait_until(lambda: job.completed == 1)
            first_pool.shutdown(wait=False)
            crashed.release(5)  # let the abandoned thread exit

            # Second life: resume from the journal.
            runner = GatedRunner()
            second, second_pool = make_scheduler(
                runner, cache=cache, journal=journal_dir)
            try:
                resumed = second.resume()
                assert [j.id for j in resumed] == [job.id]
                revived = second.get(job.id)
                assert any(event["name"] == "job_resumed"
                           for event in revived.events)
                runner.release(5)
                await wait_until(lambda: revived.terminal)
                assert revived.state == "done"
                # Point 0 came from the shared cache; only point 1
                # re-executed.
                assert runner.order == [1]
                assert second.counters["serve.journal_replays"] == 1
                assert second.counters[
                    "serve.points_cache_hits"] == 1
                # Fresh ids keep counting past the resumed one.
                fresh = second.submit(spec("t", [9]))
                assert fresh.id > job.id
                runner.release(1)
                await wait_until(lambda: fresh.terminal)
            finally:
                second_pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_resume_skips_terminal_jobs(self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path / "cache")
            journal_dir = tmp_path / "state"
            runner = FlakyRunner(fail_times=0)
            first, first_pool = make_scheduler(
                runner, cache=cache, journal=journal_dir)
            done = first.submit(spec("t", [0]))
            await wait_until(lambda: done.terminal)
            first_pool.shutdown(wait=False)

            second, second_pool = make_scheduler(
                FlakyRunner(fail_times=0), cache=cache,
                journal=journal_dir)
            try:
                assert second.resume() == []
                assert second.list_jobs() == []
            finally:
                second_pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_resume_logs_and_counts_unparseable_jobs(self, tmp_path,
                                                     capsys):
        """A journalled job the wire format now rejects (its config
        still names the removed ``engine`` field) is skipped loudly;
        the valid job beside it is re-admitted."""
        async def scenario():
            journal_dir = tmp_path / "state"
            journal = JobJournal(journal_dir)
            for job_id, config in (("job-000001", {"engine": "auto"}),
                                   ("job-000002", {})):
                journal.job_submitted(job_id, {
                    "tenant": "t", "weight": 1,
                    "points": [{"workload": "fft", "scale": 0.05,
                                "seed": 0, "config": config}]})
            journal.close()

            scheduler, pool = make_scheduler(FlakyRunner(fail_times=0),
                                             journal=journal_dir)
            try:
                resumed = scheduler.resume()
                assert [job.id for job in resumed] == ["job-000002"]
                await wait_until(lambda: resumed[0].terminal)
                assert resumed[0].state == "done"
                assert scheduler.counters["serve.journal_replays"] == 1
                assert scheduler.counters["serve.journal_skipped"] == 1
                assert scheduler.metrics()["resilience"][
                    "journal_skipped"] == 1
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())
        err = capsys.readouterr().err
        assert "job-000001" in err and "engine" in err
        assert "job-000002" not in err

    def test_resume_without_journal_is_noop(self):
        async def scenario():
            scheduler, pool = make_scheduler(FlakyRunner())
            try:
                assert scheduler.resume() == []
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())


class TestDrainUnderFire:
    def test_timed_drain_gives_up_and_resume_finishes(self, tmp_path):
        """The satellite scenario: SIGTERM arrives while a worker is
        wedged; drain must not hang, and the journal must carry the
        unfinished job into the next life."""
        async def scenario():
            cache = ResultCache(tmp_path / "cache")
            journal_dir = tmp_path / "state"
            hung = GatedRunner()  # never released until teardown
            first, first_pool = make_scheduler(
                hung, cache=cache, journal=journal_dir)
            job = first.submit(spec("t", [0]))
            await wait_until(lambda: len(hung.order) == 1)
            drained = await first.drain(timeout=0.1)
            assert drained is False  # gave up, did not hang
            assert not first.ready()[0]
            first_pool.shutdown(wait=False)
            hung.release(5)

            runner = GatedRunner()
            second, second_pool = make_scheduler(
                runner, cache=cache, journal=journal_dir)
            try:
                resumed = second.resume()
                assert [j.id for j in resumed] == [job.id]
                runner.release(5)
                await wait_until(
                    lambda: second.get(job.id).terminal)
                assert second.get(job.id).state == "done"
                assert await second.drain(timeout=5.0) is True
            finally:
                second_pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_clean_drain_returns_true(self):
        async def scenario():
            runner = FlakyRunner(fail_times=0)
            scheduler, pool = make_scheduler(runner)
            try:
                job = scheduler.submit(spec("t", [0]))
                assert await scheduler.drain(timeout=5.0) is True
                assert job.state == "done"
                assert scheduler.ready() == (False, "draining")
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())
