"""End-to-end service tests: a real server, real warm workers.

One module-scoped server (asyncio loop in a background thread, warm
two-process pool, shared ResultCache) serves every test over
localhost through the blocking :class:`ServeClient` — exactly the
production topology of ``repro serve`` + ``repro submit``. The
load-bearing assertion: results streamed over the wire are
**bit-identical** — cycles, per-CPU clocks, every statistic — to a
direct in-process :func:`run_sweep`.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.config import e6000_config
from repro.errors import BackpressureError, ServeError
from repro.obs.schema import validate_chrome_trace
from repro.serve.client import ServeClient
from repro.serve.http import MAX_BODY_BYTES, MAX_HEADER_BYTES, ServeHTTP
from repro.serve.jobs import job_request_dict
from repro.serve.scheduler import Scheduler
from repro.sim.sweep import ResultCache, SweepPoint, run_sweep

MAX_QUEUED = 8


def points_for(seeds, workload="fft", scale=0.05):
    config = e6000_config(num_processors=2)
    return [SweepPoint(workload, config, scale=scale, seed=seed)
            for seed in seeds]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    record_dir = tmp_path_factory.mktemp("serve-recs")
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def boot():
        scheduler = Scheduler(cache=ResultCache(cache_dir),
                              max_workers=2,
                              max_queued_per_tenant=MAX_QUEUED,
                              record_dir=record_dir)
        await scheduler.start()
        server = await ServeHTTP(scheduler, port=0).start()
        return scheduler, server

    scheduler, server = asyncio.run_coroutine_threadsafe(
        boot(), loop).result(timeout=120)
    client = ServeClient(port=server.port)
    yield scheduler, client
    asyncio.run_coroutine_threadsafe(server.drain(),
                                     loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


class TestEndToEnd:
    def test_healthz(self, service):
        _, client = service
        assert client.healthz() == {"status": "ok"}

    def test_results_bit_identical_to_run_sweep(self, service):
        """The tentpole contract: what the service streams back is
        the same simulation, bit for bit."""
        _, client = service
        points = points_for([0, 1, 2])
        job = client.submit(points, tenant="identical")
        final = client.wait(job["id"])
        assert final["state"] == "done"
        served = client.results(job["id"])
        direct = run_sweep(points, cache=None)
        for over_wire, in_process in zip(served, direct):
            assert over_wire.cycles == in_process.cycles
            assert over_wire.per_cpu_cycles == \
                in_process.per_cpu_cycles
            assert over_wire.stats == in_process.stats
            assert over_wire.workload == in_process.workload

    def test_event_stream_is_valid_trace_ndjson(self, service):
        _, client = service
        points = points_for([0, 1])
        job = client.submit(points, tenant="events")
        events = list(client.stream_events(job["id"]))
        assert events[0]["name"] == "job_accepted"
        assert events[-1]["name"] == "job_done"
        names = [event["name"] for event in events]
        assert names.count("point_done") == 2
        # The stream is literally Chrome trace events: wrapping it in
        # a payload envelope must validate against the schema.
        validate_chrome_trace({"traceEvents": events,
                               "otherData": {"schema_version": 1}})

    def test_second_tenant_hits_warm_cache(self, service):
        scheduler, client = service
        points = points_for([0, 1, 2])  # same as the identical test
        before = scheduler.counters["serve.points_cache_hits"]
        job = client.submit(points, tenant="warm")
        final = client.wait(job["id"])
        assert final["state"] == "done"
        after = scheduler.counters["serve.points_cache_hits"]
        assert after - before >= 3
        assert client.results(job["id"])[0] is not None

    def test_backpressure_429(self, service):
        _, client = service
        too_many = points_for(range(MAX_QUEUED + 1))
        with pytest.raises(BackpressureError) as info:
            client.submit(too_many, tenant="greedy")
        assert info.value.status == 429
        assert "budget" in str(info.value)

    def test_cancel_over_http(self, service):
        _, client = service
        job = client.submit(points_for([40, 41, 42, 43], scale=0.4),
                            tenant="cancel")
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        assert client.job(job["id"])["state"] == "cancelled"
        # The stream of a terminal job replays and closes.
        events = list(client.stream_events(job["id"]))
        assert events[-1]["args"]["state"] == "cancelled"

    def test_jobs_listing_filters_by_tenant(self, service):
        _, client = service
        listed = client.jobs(tenant="identical")
        assert listed and all(job["tenant"] == "identical"
                              for job in listed)
        assert len(client.jobs()) >= len(listed)

    def test_stats_counters(self, service):
        _, client = service
        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["serve.jobs_accepted"] >= 4
        assert counters["serve.points_executed"] >= 3
        assert metrics["workers"]["max"] == 2
        assert metrics["draining"] is False

    def test_unknown_job_404(self, service):
        _, client = service
        with pytest.raises(ServeError) as info:
            client.job("job-999999")
        assert info.value.status == 404

    def test_malformed_body_400(self, service):
        _, client = service
        with pytest.raises(ServeError) as info:
            client.submit_raw({"points": [{"workload": "fft",
                                           "bogus": 1}]})
        assert info.value.status == 400

    def test_engine_config_field_400(self, service):
        """The engine selector is gone: a config naming it is a 400
        that says which field, not a silently different machine."""
        _, client = service
        with pytest.raises(ServeError) as info:
            client.submit_raw({"points": [{
                "workload": "fft", "config": {"engine": "auto"}}]})
        assert info.value.status == 400
        assert "engine" in str(info.value)

    def test_unknown_path_404(self, service):
        _, client = service
        with pytest.raises(ServeError) as info:
            client._request("GET", "/v2/nothing")
        assert info.value.status == 404

    def test_metrics_endpoint(self, service):
        _, client = service
        metrics = client.metrics()
        assert metrics["schema_version"] == 4
        assert metrics["workers"]["max"] == 2
        assert metrics["cache"]["enabled"] is True
        assert 0.0 <= metrics["cache"]["hit_rate"] <= 1.0
        assert metrics["recordings"]["enabled"] is True
        assert "identical" in metrics["tenants"]
        assert metrics["counters"]["serve.jobs_accepted"] >= 1

    def test_record_job_streams_recording(self, service):
        """A record job's artifact fetched over the wire is a valid,
        checksum-intact recording of the requested point."""
        from repro.obs import Recording
        from repro.sim.sweep import point_key
        _, client = service
        points = points_for([7], scale=0.02)
        job = client.submit(points, tenant="recorder", record=True)
        final = client.wait(job["id"])
        assert final["state"] == "done"
        payload = json.loads(client.recording_bytes(job["id"], 0))
        # checksum is over the canonical core, so validation survives
        # the wire round-trip through a JSON parse
        recording = Recording.loads(json.dumps(payload))
        assert recording.fingerprint == point_key(points[0])
        assert recording.to_result().cycles == \
            client.results(job["id"])[0].cycles

    def test_corrupt_recording_is_recorded_afresh(self, service):
        """A torn recording on disk is never served: resubmitting the
        record job quarantines it, re-executes the point (its result
        is a cache hit, its recording is not) and serves bytes equal
        to a clean recording of the point."""
        from repro.obs.recording import record_run
        from repro.sim.sweep import point_key
        scheduler, client = service
        points = points_for([9], scale=0.02)
        clean = record_run(points[0]).to_bytes()
        first = client.submit(points, tenant="torn", record=True)
        assert client.wait(first["id"])["state"] == "done"
        assert client.recording_bytes(first["id"], 0) == clean
        path = scheduler.record_dir / f"{point_key(points[0])}.rec.json"
        path.write_bytes(clean[:len(clean) // 2])
        again = client.submit(points, tenant="torn", record=True)
        assert client.wait(again["id"])["state"] == "done"
        assert client.recording_bytes(again["id"], 0) == clean
        assert path.read_bytes() == clean
        assert path.with_name(path.name + ".corrupt").read_bytes() \
            == clean[:len(clean) // 2]

    def test_recording_404_for_plain_job(self, service):
        _, client = service
        job = client.submit(points_for([0]), tenant="plain")
        client.wait(job["id"])
        with pytest.raises(ServeError) as info:
            client.recording_bytes(job["id"], 0)
        assert info.value.status == 404

    def test_unknown_workload_fails_job_not_server(self, service):
        """A point whose workload generation explodes in the worker
        fails that job cleanly; the server keeps serving."""
        _, client = service
        job = client.submit(points_for([0], workload="not-a-kernel"),
                            tenant="broken")
        final = client.wait(job["id"])
        assert final["state"] == "failed"
        errors = client.errors(job["id"])
        assert errors[0] is not None
        assert client.healthz() == {"status": "ok"}


def raw_exchange(port, request: bytes):
    """Send ``request`` verbatim, half-close, and read the reply to
    EOF: ``(status, body)``, or ``(None, b"")`` for an empty reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        except ConnectionResetError:
            pass  # the server closed with request bytes left unread
    if not reply:
        return None, b""
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def padded_headers(total: int) -> bytes:
    """Header lines of 1 KB each, ``total`` bytes in all, with no
    terminating blank line (the server must stop reading at the cap,
    having consumed every byte sent)."""
    lines = []
    while total > 0:
        size = min(1024, total)
        name = f"X-Pad-{len(lines)}: ".encode()
        lines.append(name + b"a" * (size - len(name) - 2) + b"\r\n")
        total -= size
    return b"".join(lines)


def post_with_length(length: str) -> bytes:
    return (f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {length}"
            "\r\n\r\n").encode()


class TestMalformedFraming:
    """Requests the parser rejects get their status and a JSON error
    body over a raw socket, not an empty reply."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GARBAGE\r\n", 400),
        (b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n", 400),
        (b"GET /v1/healthz HTTP/1.1\r\n"
         + padded_headers(MAX_HEADER_BYTES + 100), 400),
        (b"GET /v1/healthz HTTP/1.1\r\nX-Long: "
         + b"a" * (MAX_HEADER_BYTES + 1024) + b"\r\n", 400),
        (post_with_length("abc"), 400),
        (post_with_length("-1"), 400),
        (post_with_length(str(MAX_BODY_BYTES + 1)), 413),
    ], ids=["request-line", "request-line-too-long", "headers-too-large",
            "header-line-over-buffer", "content-length-not-int",
            "content-length-negative", "content-length-too-large"])
    def test_malformed_request_gets_its_status(self, service,
                                               request_bytes, status):
        _, client = service
        got, body = raw_exchange(client.port, request_bytes)
        assert got == status
        assert "error" in json.loads(body)
        assert client.healthz() == {"status": "ok"}


class TestStatusCodes:
    """Statuses pinned on the raw wire, below the client's mapping."""

    def test_stats_endpoint_is_gone(self, service):
        _, client = service
        got, body = raw_exchange(
            client.port, b"GET /v1/stats HTTP/1.1\r\n\r\n")
        assert got == 404
        assert "error" in json.loads(body)

    def test_submit_answers_201(self, service):
        _, client = service
        body = json.dumps(job_request_dict(
            points_for([0]), tenant="created")).encode()
        got, reply = raw_exchange(
            client.port,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)
        assert got == 201
        job = json.loads(reply)
        assert job["tenant"] == "created"
        assert client.wait(job["id"])["state"] == "done"
