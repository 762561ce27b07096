"""The live metrics plane and record-job plumbing of the scheduler.

Same injection strategy as test_scheduler.py: a thread-pool executor
plus synchronous runners make queue state and counters deterministic.
The record runner is injected too, publishing minimal recordings
that verify (kind, schema version, checksum) under point_key — exactly
the contract a recording ``repro.sim.sweep.PointRunner`` fulfils in
production.
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import e6000_config
from repro.errors import ServeError
from repro.obs import validate_chrome_trace
from repro.obs.recording import (RECORDING_SCHEMA_VERSION, Recording,
                                 _checksum)
from repro.serve.jobs import JobSpec
from repro.serve.scheduler import Scheduler
from repro.sim.sweep import (RecordingStore, ResultCache, SweepPoint,
                             point_key)
from repro.smp.metrics import SimulationResult


def _result(point):
    return SimulationResult(
        workload=point.workload, num_cpus=2,
        cycles=100_000 + point.seed,
        per_cpu_cycles=[100_000 + point.seed, 99_000],
        stats={"bus.transactions": 10 + point.seed})


def plain_runner(point):
    return _result(point), 0.001


class RecordingRunner:
    """Stands in for a recording ``PointRunner``: same result contract plus
    a checksummed recording artifact stored under point_key."""

    def __init__(self, record_dir):
        self.store = RecordingStore(record_dir)

    def __call__(self, point):
        payload = {"kind": "repro-recording",
                   "schema_version": RECORDING_SCHEMA_VERSION,
                   "seed": point.seed}
        payload["checksum"] = _checksum(payload)
        self.store.store(point_key(point), Recording(payload))
        return _result(point), 0.001


def spec(tenant, seeds, weight=1, record=False):
    config = e6000_config(num_processors=2)
    return JobSpec(tenant=tenant, weight=weight,
                   points=tuple(SweepPoint("fft", config, scale=0.05,
                                           seed=seed)
                                for seed in seeds),
                   record=record)


async def wait_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, \
            "condition never became true"
        await asyncio.sleep(0.005)


def make_scheduler(tmp_path=None, cache=None, **kwargs):
    pool = ThreadPoolExecutor(max_workers=2)
    record_kwargs = {}
    if tmp_path is not None:
        record_dir = tmp_path / "recs"
        record_kwargs = {
            "record_dir": record_dir,
            "record_runner": RecordingRunner(record_dir)}
    scheduler = Scheduler(cache=cache, max_workers=2, executor=pool,
                          runner=plain_runner, **record_kwargs,
                          **kwargs)
    return scheduler, pool


class TestMetrics:
    def test_shape_and_counts(self):
        async def scenario():
            scheduler, pool = make_scheduler()
            try:
                job = scheduler.submit(spec("alice", [0, 1]))
                await wait_until(lambda: job.terminal)
                metrics = scheduler.metrics()
                assert metrics["schema_version"] == 3
                assert metrics["queue"]["depth"] == 0
                assert metrics["workers"]["max"] == 2
                assert metrics["cache"] == {
                    "enabled": False, "hits": 0, "executed": 2,
                    "hit_rate": 0.0}
                assert metrics["recordings"] == {
                    "enabled": False, "written": 0}
                alice = metrics["tenants"]["alice"]
                assert alice["completed"] == 2
                assert alice["failed"] == 0
                assert alice["throughput_per_s"] > 0
                assert metrics["counters"][
                    "serve.points_executed"] == 2
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_cache_hit_rate(self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path / "cache")
            scheduler, pool = make_scheduler(cache=cache)
            try:
                first = scheduler.submit(spec("t", [0]))
                await wait_until(lambda: first.terminal)
                second = scheduler.submit(spec("t", [0]))
                await wait_until(lambda: second.terminal)
                cache_metrics = scheduler.metrics()["cache"]
                assert cache_metrics["hits"] == 1
                assert cache_metrics["executed"] == 1
                assert cache_metrics["hit_rate"] == 0.5
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_counters_event_precedes_job_done(self):
        async def scenario():
            scheduler, pool = make_scheduler()
            try:
                job = scheduler.submit(spec("alice", [0]))
                await wait_until(lambda: job.terminal)
                names = [event["name"] for event in job.events]
                assert names[-1] == "job_done"
                assert names[-2] == "serve.counters"
                counter = job.events[-2]
                assert counter["ph"] == "C"
                assert counter["args"]["executed"] == 1
                validate_chrome_trace({
                    "traceEvents": job.events,
                    "otherData": {"schema_version": 1}})
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())


class TestRecordJobs:
    def test_record_job_writes_artifacts(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            try:
                job = scheduler.submit(
                    spec("alice", [0, 1], record=True))
                await wait_until(lambda: job.terminal)
                assert job.state == "done"
                for index in (0, 1):
                    body = scheduler.recording_bytes(job.id, index)
                    assert json.loads(body)["kind"] == \
                        "repro-recording"
                metrics = scheduler.metrics()
                assert metrics["recordings"] == {
                    "enabled": True, "written": 2}
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_record_without_record_dir_rejected(self):
        async def scenario():
            scheduler, pool = make_scheduler()
            try:
                with pytest.raises(ServeError, match="record"):
                    scheduler.submit(spec("alice", [0], record=True))
                assert scheduler.counters["serve.jobs_rejected"] == 1
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_plain_job_has_no_recordings(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            try:
                job = scheduler.submit(spec("alice", [0]))
                await wait_until(lambda: job.terminal)
                with pytest.raises(ServeError,
                                   match="did not request"):
                    scheduler.recording_bytes(job.id, 0)
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_recording_index_out_of_range(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            try:
                job = scheduler.submit(spec("alice", [0], record=True))
                await wait_until(lambda: job.terminal)
                with pytest.raises(ServeError, match="no point"):
                    scheduler.recording_bytes(job.id, 5)
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())

    def test_cached_point_reexecutes_until_recording_exists(
            self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path / "cache")
            scheduler, pool = make_scheduler(tmp_path, cache=cache)
            try:
                # A plain job warms the result cache but leaves no
                # recording...
                plain = scheduler.submit(spec("t", [0]))
                await wait_until(lambda: plain.terminal)
                # ...so a record job must execute (not cache-hit).
                recorded = scheduler.submit(spec("t", [0],
                                            record=True))
                await wait_until(lambda: recorded.terminal)
                assert scheduler.counters[
                    "serve.recordings_written"] == 1
                # A second record job now reuses both artifacts.
                again = scheduler.submit(spec("t", [0], record=True))
                await wait_until(lambda: again.terminal)
                assert scheduler.counters[
                    "serve.points_cache_hits"] == 1
                assert scheduler.counters[
                    "serve.recordings_written"] == 1
            finally:
                pool.shutdown(wait=False)
        asyncio.run(scenario())


class TestRecordJobsFork:
    def test_record_jobs_fork_like_recorded_sweep_points(self, tmp_path):
        """With a checkpoint dir, a record job forks from the store
        like a recorded sweep point: the second scale of one family
        hits the first's seam snapshot, and the recording it serves
        is the bytes ``record_run`` writes for the point cold."""
        from repro.obs.recording import record_run
        config = e6000_config(num_processors=2, l2_mb=1)
        small, large = (SweepPoint("radix", config, scale=scale)
                        for scale in (0.02, 0.04))

        async def scenario():
            pool = ThreadPoolExecutor(max_workers=1)
            scheduler = Scheduler(max_workers=1, executor=pool,
                                  record_dir=tmp_path / "recs",
                                  checkpoint_dir=tmp_path / "ckpt")
            try:
                jobs = []
                for target in (small, large):
                    job = scheduler.submit(JobSpec(
                        tenant="t", weight=1, points=(target,),
                        record=True))
                    await wait_until(lambda: job.terminal, timeout=60)
                    assert job.state == "done"
                    jobs.append(job)
                return scheduler.counters, [
                    scheduler.recording_bytes(job.id, 0)
                    for job in jobs]
            finally:
                pool.shutdown(wait=False)
        counters, served = asyncio.run(scenario())
        assert counters["serve.checkpoint_hits"] >= 1
        assert served == [record_run(small).to_bytes(),
                          record_run(large).to_bytes()]
