"""The chaos orchestrator: drive a real server through a fault plan.

:func:`run_chaos` is what ``python -m repro chaos`` runs. One
invocation:

1. computes the **clean reference** — an in-process, chaos-free
   :func:`~repro.sim.sweep.run_sweep` over the same points (plus
   reference recordings when requested);
2. launches a real ``repro serve`` subprocess with a fresh cache,
   a state dir (journal on), a point deadline, and the plan exported
   through ``REPRO_CHAOS_PLAN``;
3. runs one **leg** per orchestrator-level fault — severing the
   progress stream mid-job (``client-drop``), SIGKILLing the server
   mid-job and relaunching it with ``--resume`` (``server-restart``),
   garbling a cache entry on disk (``cache-corrupt``) — while
   worker-level faults (``worker-kill``, ``point-hang``) fire from
   inside the workers on their target points;
4. asserts the **invariant**: every completed job's results equal
   the clean reference exactly (and recording artifacts match
   byte-for-byte), and the expected recovery machinery actually
   engaged (worker restarts counted, journal replayed, corrupt entry
   quarantined).

Determinism note: fault *targets* are a pure function of the seed.
The server-restart leg races by nature — the job can finish before
the kill lands. The harness detects that (the resumed server 404s
the finished job), resubmits the same points (pure cache hits, still
identity-checked) and reports the leg as ``raced`` rather than
failing; the deterministic mid-crash resume path is pinned by
tests/serve/test_resilience.py at the scheduler level.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..config import e6000_config
from ..errors import ReproError, ServeError
from ..serve.client import ServeClient
from ..serve.jobs import result_to_dict
from ..sim.sweep import ResultCache, SweepPoint, point_key, run_sweep
from .plan import ChaosPlan, describe_plan, plan_for_points


class ChaosError(ReproError):
    """The harness could not complete a leg (distinct from the
    invariant failing, which is reported, not raised)."""


@dataclass
class ChaosReport:
    """What happened, what was asserted, and whether it held."""

    seed: int
    faults: List[str]
    plan_lines: List[str]
    legs: List[Dict[str, object]] = field(default_factory=list)
    checks: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check["ok"] for check in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": detail})

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": self.faults,
                "plan": self.plan_lines, "legs": self.legs,
                "checks": self.checks, "metrics": self.metrics,
                "ok": self.ok}

    def format(self) -> str:
        lines = [f"chaos run (seed {self.seed}): "
                 f"faults {', '.join(self.faults)}"]
        lines += [f"  plan: {line}" for line in self.plan_lines]
        for leg in self.legs:
            lines.append(f"  leg {leg['name']}: {leg['outcome']}")
        for check in self.checks:
            mark = "ok " if check["ok"] else "FAIL"
            detail = f" — {check['detail']}" if check["detail"] else ""
            lines.append(f"  [{mark}] {check['name']}{detail}")
        lines.append("invariant holds: results identical to clean run"
                     if self.ok else "INVARIANT VIOLATED")
        return "\n".join(lines)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _repo_env(plan_path: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing \
        else src_root + os.pathsep + existing
    env["REPRO_CHAOS_PLAN"] = str(plan_path)
    return env


class _Server:
    """One ``repro serve`` subprocess under harness control."""

    def __init__(self, port: int, workers: int, cache_dir: Path,
                 state_dir: Path, record_dir: Optional[Path],
                 point_timeout: float, env: Dict[str, str],
                 log_path: Path):
        self.port = port
        self.workers = workers
        self.cache_dir = cache_dir
        self.state_dir = state_dir
        self.record_dir = record_dir
        self.point_timeout = point_timeout
        self.env = env
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None

    def launch(self, resume: bool = False) -> None:
        command = [sys.executable, "-m", "repro", "serve",
                   "--host", "127.0.0.1", "--port", str(self.port),
                   "--workers", str(self.workers),
                   "--cache-dir", str(self.cache_dir),
                   "--state-dir", str(self.state_dir),
                   "--point-timeout", str(self.point_timeout)]
        if self.record_dir is not None:
            command += ["--record-dir", str(self.record_dir)]
        if resume:
            command.append("--resume")
        log = open(self.log_path, "a")
        # New session: the server, its fork server and its workers
        # share a process group, so kill()/terminate() can reap the
        # whole tree even after a SIGKILL orphans the descendants.
        self.process = subprocess.Popen(
            command, env=self.env, stdout=log, stderr=log,
            start_new_session=True)
        log.close()

    def wait_healthy(self, client: ServeClient,
                     timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process is not None \
                    and self.process.poll() is not None:
                raise ChaosError(
                    "serve subprocess exited with "
                    f"{self.process.returncode}; log: "
                    f"{self.log_path}")
            try:
                client.healthz()
                return
            except (OSError, ServeError):
                time.sleep(0.1)
        raise ChaosError(
            f"server never became healthy; log: {self.log_path}")

    def _kill_group(self) -> None:
        """Reap the whole process group — workers included."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

    def kill(self) -> None:
        """SIGKILL — the crash the journal exists for."""
        if self.process is not None:
            self._kill_group()
            self.process.wait()
            self.process = None

    def terminate(self, timeout: float = 60.0) -> None:
        if self.process is None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        # Whatever drain left behind (hung chaos workers, the fork
        # server) goes with the group.
        self._kill_group()
        if self.process.poll() is None:
            self.process.wait()
        self.process = None


def _build_points(workload: str, cpus: int, scale: float,
                  count: int) -> List[SweepPoint]:
    config = e6000_config(num_processors=cpus)
    return [SweepPoint(workload, config, scale=scale, seed=seed)
            for seed in range(count)]


def _results_match(served: Sequence[Optional[dict]],
                   reference: Sequence[dict]) -> bool:
    return list(served) == list(reference)


def _corrupt_cache_entry(cache_dir: Path, key: str) -> Path:
    """Garble one cache entry in place (bit rot, torn write...) so
    the next load fails checksum/parse and quarantines it."""
    path = cache_dir / f"{key}.json"
    data = bytearray(path.read_bytes() if path.exists()
                     else b"{}")
    garbled = b"\x00CHAOS\x00" + bytes(data[::-1])
    path.write_bytes(garbled)
    return path


def run_chaos(workload: str = "fft", cpus: int = 2,
              scale: float = 0.05, points: int = 4, seed: int = 0,
              faults: Optional[Sequence[str]] = None,
              workers: int = 2, point_timeout: float = 5.0,
              record: bool = False,
              work_dir: Optional[str] = None) -> ChaosReport:
    """Run one seeded chaos campaign; returns the report (the CLI
    exits non-zero when ``report.ok`` is False)."""
    kinds = list(faults) if faults else ["worker-kill", "point-hang",
                                         "cache-corrupt",
                                         "server-restart",
                                         "client-drop"]
    sweep = _build_points(workload, cpus, scale, max(1, points))
    keys = [point_key(point) for point in sweep]
    key_to_index = {key: index for index, key in enumerate(keys)}

    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        root = Path(cleanup.name)
    else:
        root = Path(work_dir)
        root.mkdir(parents=True, exist_ok=True)
    try:
        return _run(root, sweep, keys, key_to_index, kinds, seed,
                    workers, point_timeout, record)
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _run(root: Path, sweep: List[SweepPoint], keys: List[str],
         key_to_index: Dict[str, int], kinds: List[str], seed: int,
         workers: int, point_timeout: float,
         record: bool) -> ChaosReport:
    plan = plan_for_points(seed, sweep, kinds, root / "markers",
                           hang_s=max(60.0, point_timeout * 20))
    plan_path = plan.save(root / "chaos-plan.json")
    report = ChaosReport(seed=seed, faults=sorted(set(kinds)),
                         plan_lines=describe_plan(plan, key_to_index))

    # 1. Clean reference, fully outside the chaos env.
    clean_cache = ResultCache(root / "clean-cache")
    clean_record_dir = root / "clean-recordings" if record else None
    reference_results = run_sweep(
        sweep, cache=clean_cache,
        record_dir=clean_record_dir)
    reference = [result_to_dict(result)
                 for result in reference_results]

    # 2. The server under test: fresh cache, journal on, chaos
    #    plan exported to its workers.
    server = _Server(
        port=_free_port(), workers=workers,
        cache_dir=root / "serve-cache", state_dir=root / "state",
        record_dir=(root / "serve-recordings") if record else None,
        point_timeout=point_timeout, env=_repo_env(plan_path),
        log_path=root / "serve.log")
    client = ServeClient("127.0.0.1", server.port, timeout=120.0,
                         retries=4, backoff_s=0.2, seed=seed)
    server.launch()
    try:
        server.wait_healthy(client)
        ready = client.readyz()
        report.check("readyz", ready.get("ready") is True,
                     str(ready))

        # Leg 1: the worker-fault job. worker-kill / point-hang fire
        # inside workers while this job runs; with client-drop
        # requested, the progress stream is severed mid-job and must
        # resume.
        job = client.submit(sweep, tenant="chaos")
        if "client-drop" in kinds:
            _sever_stream_once(client, server.port, job["id"])
            report.legs.append({"name": "client-drop",
                                "outcome": "stream severed mid-job; "
                                           "client resumed"})
        final = client.wait(job["id"])
        served = [None if r is None else result_to_dict(r)
                  for r in client.results(job["id"])]
        report.legs.append({
            "name": "worker-faults",
            "outcome": f"job {job['id']} -> {final['state']}"})
        report.check("worker-faults job completes",
                     final["state"] == "done",
                     f"state={final['state']} "
                     f"errors={client.errors(job['id'])}")
        report.check("worker-faults results identical",
                     _results_match(served, reference))
        # Counter checks snapshot NOW: the server-restart leg below
        # SIGKILLs this server instance, and the resumed process
        # starts its in-memory counters from zero (the journal
        # persists work, not metrics).
        first_counters = client.metrics()["counters"]
        if "worker-kill" in kinds or "point-hang" in kinds:
            report.check(
                "worker pool respawned",
                first_counters["serve.worker_restarts"] >= 1,
                f"serve.worker_restarts="
                f"{first_counters['serve.worker_restarts']}")
            report.check(
                "points retried",
                first_counters["serve.retries"] >= 1,
                f"serve.retries={first_counters['serve.retries']}")

        # Leg 2: kill the server mid-job, relaunch with --resume.
        if "server-restart" in kinds:
            _restart_leg(report, server, client, sweep)

        # Leg 3: corrupt a cache entry, resubmit — the server must
        # quarantine the bad file and recompute the point.
        if "cache-corrupt" in kinds:
            _corrupt_leg(report, server, client, plan, sweep,
                         reference, key_to_index)

        # Recordings: byte-for-byte identity, on disk and over the
        # wire.
        if record:
            _record_leg(report, client, sweep, server.record_dir,
                        clean_record_dir)

        metrics = client.metrics()
        # Counters are per-process and reset when the server-restart
        # leg replaces the server; report the per-key max across both
        # lives — a lower bound on campaign totals that keeps
        # "did a restart/retry happen at all" answerable from JSON.
        report.metrics = {
            "counters": {
                key: max(value, first_counters.get(key, 0))
                for key, value in metrics["counters"].items()},
            "resilience": metrics["resilience"],
        }
        quarantined = max(
            metrics["counters"]["serve.quarantined_points"],
            first_counters["serve.quarantined_points"])
        report.check("no points quarantined (faults are transient)",
                     quarantined == 0,
                     f"serve.quarantined_points={quarantined}")
    finally:
        server.terminate()
    return report


def _sever_stream_once(client: ServeClient, port: int,
                       job_id: str) -> None:
    """Open the NDJSON stream raw, read a line or two, slam the
    connection shut — the mid-stream drop the resumable client must
    survive."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=30.0) as sock:
        ServeClient._send_request(
            sock, "GET", f"/v1/jobs/{job_id}/events", None)
        handle = sock.makefile("rb")
        ServeClient._read_head(handle)
        handle.readline()  # one event, then die mid-stream
        # RST instead of FIN: the harshest flavour of connection loss.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))


def _restart_leg(report: ChaosReport, server: _Server,
                 client: ServeClient,
                 sweep: List[SweepPoint]) -> None:
    # A second tenant's job, submitted cold so some points are still
    # pending when the kill lands (the first leg warmed the cache for
    # tenant "chaos"'s points — resubmitting the same points would
    # finish instantly; instead shift every seed so this job has real
    # work outstanding).
    shifted = [SweepPoint(point.workload, point.config,
                          scale=point.scale,
                          seed=point.seed + 1000)
               for point in sweep]
    shifted_reference = [
        result_to_dict(result)
        for result in run_sweep(shifted,
                                cache=ResultCache(
                                    server.cache_dir.parent
                                    / "clean-cache-restart"))]
    job = client.submit(shifted, tenant="restart")
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        snapshot = client.job(job["id"])
        if snapshot["completed"] >= 1 or snapshot["state"] in (
                "done", "failed", "cancelled"):
            break
        time.sleep(0.05)
    server.kill()
    server.launch(resume=True)
    server.wait_healthy(client)
    try:
        final = client.wait(job["id"])
        raced = False
    except ServeError as exc:
        if exc.status != 404:
            raise
        # The job finished (terminal in the journal) before the kill
        # landed — nothing to resume. Resubmit: every point is a
        # cache hit, and identity is still asserted.
        raced = True
        job = client.submit(shifted, tenant="restart")
        final = client.wait(job["id"])
    served = [None if r is None else result_to_dict(r)
              for r in client.results(job["id"])]
    metrics = client.metrics()
    outcome = ("raced (job finished before kill); resubmitted as "
               f"{job['id']}" if raced
               else f"resumed {job['id']} -> {final['state']}")
    report.legs.append({"name": "server-restart",
                        "outcome": outcome, "raced": raced})
    report.check("server-restart job completes",
                 final["state"] == "done",
                 f"state={final['state']}")
    report.check("server-restart results identical",
                 _results_match(served, shifted_reference))
    if not raced:
        report.check(
            "journal replayed on --resume",
            metrics["counters"]["serve.journal_replays"] >= 1,
            f"serve.journal_replays="
            f"{metrics['counters']['serve.journal_replays']}")


def _corrupt_leg(report: ChaosReport, server: _Server,
                 client: ServeClient, plan: ChaosPlan,
                 sweep: List[SweepPoint], reference: List[dict],
                 key_to_index: Dict[str, int]) -> None:
    targets = plan.targets("cache-corrupt")
    key = targets[0]
    _corrupt_cache_entry(server.cache_dir, key)
    job = client.submit(sweep, tenant="corrupt")
    final = client.wait(job["id"])
    served = [None if r is None else result_to_dict(r)
              for r in client.results(job["id"])]
    quarantine_marker = server.cache_dir / f"{key}.json.corrupt"
    report.legs.append({
        "name": "cache-corrupt",
        "outcome": f"entry for point {key_to_index[key]} garbled; "
                   f"job {job['id']} -> {final['state']}"})
    report.check("cache-corrupt job completes",
                 final["state"] == "done",
                 f"state={final['state']}")
    report.check("cache-corrupt results identical",
                 _results_match(served, reference))
    report.check("corrupt entry quarantined on disk",
                 quarantine_marker.exists(),
                 str(quarantine_marker))


def _record_leg(report: ChaosReport, client: ServeClient,
                sweep: List[SweepPoint], serve_record_dir: Path,
                clean_record_dir: Path) -> None:
    job = client.submit(sweep, tenant="chaos-rec", record=True)
    final = client.wait(job["id"])
    report.legs.append({"name": "recordings",
                        "outcome": f"record job {job['id']} -> "
                                   f"{final['state']}"})
    report.check("record job completes", final["state"] == "done",
                 f"state={final['state']}")
    identical = True
    detail = ""
    for index, point in enumerate(sweep):
        name = f"{point_key(point)}.rec.json"
        clean_bytes = (clean_record_dir / name).read_bytes()
        wire_bytes = client.recording_bytes(job["id"], index)
        disk_bytes = (serve_record_dir / name).read_bytes()
        if wire_bytes != clean_bytes or disk_bytes != clean_bytes:
            identical = False
            detail = f"point {index} recording diverged"
            break
    report.check("recording bytes identical (disk + wire)",
                 identical, detail)
