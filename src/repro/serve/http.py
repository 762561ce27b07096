"""The asyncio HTTP/1.1 front end of the sweep service.

Hand-rolled on ``asyncio.start_server`` so the repo stays
stdlib-only: one connection carries one request, every response is
``Connection: close`` delimited, and the progress stream is NDJSON
(one JSON trace event per line) written as results land. That is the
simplest protocol that curl, the bundled :class:`ServeClient` and a
browser's ``fetch`` can all consume without a framework.

Endpoints (all under ``/v1``)::

    GET    /v1/healthz            liveness ("ok", never queued)
    GET    /v1/readyz             readiness (200 only when the server
                                  is admitting work and its pool is
                                  alive; 503 with a reason otherwise)
    GET    /v1/stats              scheduler counters + gauges
    GET    /v1/metrics            live metrics plane: queue depth,
                                  warm-pool state, cache hit rate,
                                  per-tenant throughput (JSON schema
                                  in docs/serving.md)
    POST   /v1/jobs               submit a job (201 / 400 / 429 / 503)
    GET    /v1/jobs[?tenant=t]    job summaries
    GET    /v1/jobs/{id}          one job summary
    GET    /v1/jobs/{id}/results  results + errors snapshot
    GET    /v1/jobs/{id}/events   NDJSON progress stream (replays the
                                  job's history, then follows live
                                  until the job is terminal)
    GET    /v1/jobs/{id}/recordings/{index}
                                  the point's deterministic recording
                                  (jobs submitted with "record": true
                                  on a server with --record-dir)
    DELETE /v1/jobs/{id}          cancel

Errors are JSON bodies ``{"error": message}`` with the status carried
by :class:`~repro.errors.ServeError` (429 = per-tenant backpressure,
503 = draining). The request line, headers and body are size-capped;
anything malformed is a 400, never an exception escaping the handler.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from ..errors import ReproError, ServeError
from .jobs import parse_job_request
from .scheduler import Scheduler

MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class _BadRequest(ServeError):
    pass


async def _readline(reader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # a line past the stream buffer limit
        raise _BadRequest("request line or header too long",
                          status=400) from None


async def _read_request(reader) -> Tuple[str, str, Dict[str, str],
                                         bytes]:
    """Parse one request: (method, path, headers, body)."""
    line = await _readline(reader)
    if not line:
        raise ConnectionResetError("client closed before a request")
    if len(line) > MAX_REQUEST_LINE:
        raise _BadRequest("request line too long", status=400)
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"malformed request line: {line!r}",
                          status=400)
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await _readline(reader)
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise _BadRequest("headers too large", status=400)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            size = -1  # rejected with the negative lengths
        if size < 0:
            raise _BadRequest("bad Content-Length", status=400)
        if size > MAX_BODY_BYTES:
            raise _BadRequest("request body too large", status=413)
        body = await reader.readexactly(size)
    return method, path, headers, body


def _response_head(status: int, content_type: str,
                   length: Optional[int]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class ServeHTTP:
    """One scheduler behind one listening socket."""

    def __init__(self, scheduler: Scheduler,
                 host: str = "127.0.0.1", port: int = 0):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "ServeHTTP":
        """Bind and start serving; ``self.port`` is the bound port
        (useful with ``port=0`` in tests)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop listening, let the scheduler
        finish every accepted job (up to ``timeout`` seconds — the
        journal keeps whatever didn't make it), then stop the pool.
        Returns True when everything finished in time."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        return await self.scheduler.drain(timeout=timeout)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection handling -------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                method, path, _headers, body = \
                    await _read_request(reader)
                await self._route(method, path, body, writer)
            except (ConnectionResetError, asyncio.IncompleteReadError):
                return  # the client went away
            except ServeError as exc:  # _BadRequest from the parser too
                await self._send_json(writer, exc.status,
                                      {"error": str(exc)})
            except ReproError as exc:
                await self._send_json(writer, 400,
                                      {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - boundary
                await self._send_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"})
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, method: str, path: str, body: bytes,
                     writer) -> None:
        path, _, query = path.partition("?")
        segments = [seg for seg in path.split("/") if seg]
        if segments[:1] != ["v1"]:
            raise ServeError(f"unknown path {path!r}", status=404)
        rest = segments[1:]
        if rest == ["healthz"] and method == "GET":
            await self._send_json(writer, 200, {"status": "ok"})
            return
        if rest == ["readyz"] and method == "GET":
            ready, reason = self.scheduler.ready()
            await self._send_json(
                writer, 200 if ready else 503,
                {"ready": ready, "reason": reason})
            return
        if rest == ["stats"] and method == "GET":
            await self._send_json(writer, 200,
                                  self.scheduler.stats())
            return
        if rest == ["metrics"] and method == "GET":
            await self._send_json(writer, 200,
                                  self.scheduler.metrics())
            return
        if rest == ["jobs"]:
            if method == "POST":
                await self._submit(body, writer)
                return
            if method == "GET":
                tenant = _query_param(query, "tenant")
                await self._send_json(writer, 200, {
                    "jobs": [job.describe() for job in
                             self.scheduler.list_jobs(tenant)]})
                return
            raise ServeError("method not allowed", status=405)
        if len(rest) >= 2 and rest[0] == "jobs":
            job_id = rest[1]
            tail = rest[2:]
            if not tail and method == "GET":
                job = self.scheduler.get(job_id)
                await self._send_json(writer, 200, job.describe())
                return
            if not tail and method == "DELETE":
                job = self.scheduler.cancel(job_id)
                await self._send_json(writer, 200, job.describe())
                return
            if tail == ["results"] and method == "GET":
                job = self.scheduler.get(job_id)
                await self._send_json(writer, 200, {
                    "job": job.describe(),
                    "results": job.results,
                    "errors": job.errors})
                return
            if tail == ["events"] and method == "GET":
                await self._stream_events(job_id, writer)
                return
            if len(tail) == 2 and tail[0] == "recordings" \
                    and method == "GET":
                try:
                    index = int(tail[1])
                except ValueError:
                    raise ServeError(
                        f"bad recording index {tail[1]!r}",
                        status=404) from None
                await self._send_recording(job_id, index, writer)
                return
        raise ServeError(f"unknown path {path!r}", status=404)

    async def _submit(self, body: bytes, writer) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServeError("request body is not valid JSON",
                             status=400) from None
        spec = parse_job_request(payload)
        job = self.scheduler.submit(spec)
        await self._send_json(writer, 201, job.describe())

    async def _stream_events(self, job_id: str, writer) -> None:
        """Replay the job's trace events, then follow live as NDJSON
        until the job reaches a terminal state."""
        job = self.scheduler.get(job_id)
        writer.write(_response_head(200, "application/x-ndjson",
                                    length=None))
        await writer.drain()
        cursor = 0
        while True:
            # Clear-then-read: an event landing after the read sets
            # the flag again, so nothing is ever missed.
            job.new_event.clear()
            events = job.events
            while cursor < len(events):
                writer.write(json.dumps(events[cursor],
                                        sort_keys=True).encode()
                             + b"\n")
                cursor += 1
            await writer.drain()
            if job.terminal and cursor >= len(job.events):
                return
            await job.new_event.wait()

    async def _send_recording(self, job_id: str, index: int,
                              writer) -> None:
        """Ship a point's recording file verbatim once it verifies
        (it is already canonical JSON, checksum included —
        re-encoding could only break byte-identity with the
        server-side artifact)."""
        body = self.scheduler.recording_bytes(job_id, index)
        writer.write(_response_head(200, "application/json",
                                    len(body)) + body)
        await writer.drain()

    @staticmethod
    async def _send_json(writer, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        writer.write(_response_head(status, "application/json",
                                    len(body)) + body)
        await writer.drain()


def _query_param(query: str, name: str) -> Optional[str]:
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        if key == name and value:
            return value
    return None
