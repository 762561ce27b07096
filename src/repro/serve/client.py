"""Blocking client for the sweep service (``repro submit`` et al.).

Raw sockets rather than :mod:`http.client`: the server speaks the
simplest close-delimited HTTP/1.1 dialect, and reading an NDJSON
stream line-by-line off a plain socket file is both shorter and
easier to reason about than chunked-transfer plumbing. One request
per connection, matching the server's ``Connection: close``.

Typical use::

    from repro.serve import ServeClient
    client = ServeClient(port=8642)
    job = client.submit(points, tenant="figures", weight=2)
    final = client.wait(job["id"])          # follows the event stream
    results = client.results(job["id"])     # SimulationResults

Resilience (docs/resilience.md): connect and read phases carry
separate timeouts, transport-level failures (refused / reset /
timed-out connections) are retried with seeded exponential backoff,
and the event stream is **resumable** — a connection dropped
mid-NDJSON-line reconnects and skips the events already seen (the
server replays a job's full history on every stream request), so
``repro jobs --follow`` survives a server restart instead of dying
mid-stream. ``POST`` is only retried when the failure happened
before the request was sent — a submission that *might* have been
accepted is never silently re-sent.

Service-side failures (400/404/429/503) re-raise as
:class:`~repro.errors.ServeError` carrying the HTTP status, so
``except BackpressureError`` works the same on both sides of the
wire. Transport failures re-raise the *original* ``OSError`` once
retries are exhausted — callers probing for an up server keep their
``except OSError`` semantics.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import BackpressureError, ServeError
from ..sim.sweep import SweepPoint, backoff_delay
from ..smp.metrics import SimulationResult
from .jobs import job_request_dict, result_from_dict


class ServeClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 60.0,
                 connect_timeout: Optional[float] = None,
                 read_timeout: Optional[float] = None,
                 retries: int = 2, backoff_s: float = 0.2,
                 seed: int = 0):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: connect/read phases fall back to the blanket timeout
        self.connect_timeout = connect_timeout \
            if connect_timeout is not None else timeout
        self.read_timeout = read_timeout \
            if read_timeout is not None else timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.seed = seed

    # -- HTTP plumbing -------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout)
        sock.settimeout(self.read_timeout)
        return sock

    @staticmethod
    def _send_request(sock: socket.socket, method: str, path: str,
                      body: Optional[bytes]) -> None:
        lines = [f"{method} {path} HTTP/1.1",
                 "Host: repro-serve",
                 "Connection: close"]
        if body is not None:
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        sock.sendall(head + (body or b""))

    @staticmethod
    def _read_head(handle) -> Tuple[int, Dict[str, str]]:
        status_line = handle.readline().decode("latin-1")
        parts = status_line.split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ServeError(
                f"malformed response: {status_line!r}", status=502)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = handle.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    @classmethod
    def _raise_for_status(cls, status: int, body: bytes) -> None:
        if status < 400:
            return
        try:
            message = json.loads(body.decode("utf-8"))["error"]
        except (ValueError, KeyError, UnicodeDecodeError):
            message = body.decode("utf-8", "replace") or f"HTTP {status}"
        if status == 429:
            raise BackpressureError(message)
        raise ServeError(message, status=status)

    def _exchange(self, method: str, path: str,
                  body: Optional[bytes] = None) -> bytes:
        """One request with transport-level retry; the response body.

        Idempotent methods retry on any transport failure; ``POST``
        retries only when the connection itself failed (the request
        was provably never sent, so a duplicate submission is
        impossible). Exhausted retries re-raise the original error.
        """
        idempotent = method in ("GET", "DELETE")
        for attempt in range(self.retries + 1):
            connected = False
            try:
                with self._connect() as sock:
                    connected = True
                    self._send_request(sock, method, path, body)
                    with sock.makefile("rb") as handle:
                        status, headers = self._read_head(handle)
                        length = headers.get("content-length")
                        data = handle.read(int(length)) \
                            if length is not None else handle.read()
            except OSError:
                # socket.timeout is an OSError subclass, so both
                # connect- and read-phase timeouts land here.
                retryable = idempotent or not connected
                if attempt >= self.retries or not retryable:
                    raise
                time.sleep(backoff_delay(
                    self.backoff_s, attempt + 1, f"{method} {path}",
                    self.seed))
                continue
            self._raise_for_status(status, data)
            return data
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        body = None if payload is None else \
            json.dumps(payload).encode("utf-8")
        data = self._exchange(method, path, body)
        return json.loads(data.decode("utf-8")) if data else {}

    # -- API -----------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def readyz(self) -> dict:
        """Readiness verdict: ``{"ready": bool, "reason": str}``.
        Raises ServeError(503) when the server answers not-ready."""
        return self._request("GET", "/v1/readyz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> dict:
        """The live metrics plane (``/v1/metrics``; schema in
        docs/serving.md)."""
        return self._request("GET", "/v1/metrics")

    def submit(self, points: Sequence[SweepPoint],
               tenant: str = "default", weight: int = 1,
               record: bool = False) -> dict:
        """Submit SweepPoints as one job; returns the job summary.

        ``record=True`` asks the server to keep a deterministic
        recording per point (needs a server started with
        ``--record-dir``); fetch them with :meth:`recording`.
        """
        return self._request(
            "POST", "/v1/jobs",
            job_request_dict(points, tenant=tenant, weight=weight,
                             record=record))

    def submit_raw(self, payload: dict) -> dict:
        """Submit an already-serialized job request body."""
        return self._request("POST", "/v1/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, tenant: Optional[str] = None) -> List[dict]:
        path = "/v1/jobs" if tenant is None \
            else f"/v1/jobs?tenant={tenant}"
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def results(self, job_id: str
                ) -> List[Optional[SimulationResult]]:
        """The job's results, positionally, as SimulationResults
        (``None`` for pending/failed points)."""
        payload = self._request("GET", f"/v1/jobs/{job_id}/results")
        return [result_from_dict(entry)
                for entry in payload["results"]]

    def errors(self, job_id: str) -> List[Optional[str]]:
        payload = self._request("GET", f"/v1/jobs/{job_id}/results")
        return payload["errors"]

    def recording(self, job_id: str, index: int) -> dict:
        """The raw recording payload for one point of a record job
        (load it with ``repro.obs.Recording(payload)`` or save the
        JSON and use ``repro replay``/``repro diff``)."""
        return self._request(
            "GET", f"/v1/jobs/{job_id}/recordings/{index}")

    def recording_bytes(self, job_id: str, index: int) -> bytes:
        """The recording exactly as served — the server ships the
        artifact verbatim, so these bytes equal the on-disk file
        (the chaos harness compares them byte-for-byte against a
        clean run's recordings)."""
        return self._exchange(
            "GET", f"/v1/jobs/{job_id}/recordings/{index}")

    def stream_events(self, job_id: str) -> Iterator[dict]:
        """Yield the job's NDJSON progress events; the stream replays
        history first, then follows live and ends when the job is
        terminal. Events are schema-valid Chrome trace events.

        Resumable: if the connection drops mid-stream (server
        restart, reset), the client reconnects with backoff and
        skips the events it already yielded — the server replays the
        job's full history on every stream request, so the cursor is
        just a line count. Gives up (ServeError 503) after the
        retry budget.
        """
        seen = 0
        drops = 0
        while True:
            terminal = False
            try:
                with self._connect() as sock:
                    # The stream follows the job live: quiet
                    # stretches between points are expected, so no
                    # read timeout here.
                    sock.settimeout(None)
                    self._send_request(
                        sock, "GET", f"/v1/jobs/{job_id}/events",
                        None)
                    with sock.makefile("rb") as handle:
                        status, _headers = self._read_head(handle)
                        if status >= 400:
                            self._raise_for_status(status,
                                                   handle.read())
                        cursor = 0
                        for line in handle:
                            line = line.strip()
                            if not line:
                                continue
                            try:
                                event = json.loads(
                                    line.decode("utf-8"))
                            except ValueError:
                                break  # torn line: treat as a drop
                            cursor += 1
                            if event.get("name") == "job_done":
                                terminal = True
                            if cursor > seen:
                                seen = cursor
                                yield event
            except OSError:
                pass  # dropped connection: fall through to retry
            if terminal:
                return
            drops += 1
            if drops > self.retries:
                raise ServeError(
                    f"event stream for {job_id} dropped "
                    f"{drops} times; giving up", status=503)
            time.sleep(backoff_delay(
                self.backoff_s, drops, f"stream {job_id}", self.seed))

    def wait(self, job_id: str) -> dict:
        """Block until the job is terminal (via the event stream);
        returns the final job summary."""
        for _event in self.stream_events(job_id):
            pass
        return self.job(job_id)
