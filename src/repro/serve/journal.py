"""Durable job journal: an append-only JSONL write-ahead log.

The scheduler writes each job it accepts into one journal file
(``<state-dir>/journal.jsonl``), and only what recovery reads: job
submission (with the full job spec, so the job can be rebuilt from
the journal alone), cancellation, and terminal state. On restart,
``repro serve --resume`` replays the journal and re-admits every job
that never reached a terminal state — its points re-enter the fair
queue, where already-completed points short-circuit through the
shared :class:`~repro.sim.sweep.ResultCache` (results are *not*
stored in the journal; ``point_key`` idempotency makes re-dispatching
a completed point a cache hit, never a re-simulation). Per-point
progress is not journalled: it lives in each job's event stream.

Durability model: every record is one JSON line, written and flushed
before the action it describes is observable to clients. A flush
survives the *process* dying (SIGKILL included) because the bytes are
in the page cache; surviving power loss needs ``fsync=True`` (off by
default — the journal protects against crashed or killed servers,
which is the failure mode the chaos harness injects). A crash can
tear at most the final line mid-write; :meth:`replay` tolerates that
by skipping any line that fails to parse. Records carry a ``rec``
discriminator (the ``open`` header also the ``v`` schema version);
unknown record kinds are skipped on replay so old servers can read
journals written by newer ones, and a journal that still carries the
per-point ``start`` / ``done`` / ``fail`` / ``retry`` records of older
servers resumes the same jobs.

Rotation: on startup the previous journal (if any) is renamed to
``journal.jsonl.prev`` — after a ``--resume`` every incomplete job is
re-journalled into the fresh file (a *second* crash still recovers),
and without ``--resume`` the stale file is archived rather than
silently replayed. Only one generation is kept.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

#: bump when a record shape changes incompatibly
JOURNAL_SCHEMA_VERSION = 1

#: default journal filename inside a server state directory
JOURNAL_NAME = "journal.jsonl"


@dataclass
class JournaledJob:
    """One job's state as reconstructed from journal records."""

    job_id: str
    payload: Optional[dict] = None    # the job-request dict (spec)
    state: Optional[str] = None       # terminal state, or None

    @property
    def incomplete(self) -> bool:
        """True when the job was accepted but never reached a
        terminal state — the jobs ``--resume`` re-admits."""
        return self.payload is not None and self.state is None


class JobJournal:
    """Append-only JSONL WAL for the sweep-service scheduler.

    The file is opened lazily on the first append (so constructing a
    journal never touches disk) and every record is flushed before
    :meth:`append` returns. Not thread-safe by design: the scheduler
    drives it from its single asyncio loop.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = False):
        self.path = Path(path)
        # A directory (existing, or a not-yet-created extension-less
        # path like ``--state-dir state``) holds the default file
        # name; an explicit ``*.jsonl``-style path is used verbatim.
        if self.path.is_dir() or (not self.path.exists()
                                  and not self.path.suffix):
            self.path = self.path / JOURNAL_NAME
        self.fsync = fsync
        self.records_written = 0
        self._handle = None

    # -- writing -------------------------------------------------------

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or \
            self.path.stat().st_size == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self.append({"rec": "open",
                         "v": JOURNAL_SCHEMA_VERSION})

    def append(self, record: Dict[str, object]) -> None:
        """Write one record and flush it to the OS before returning."""
        if self._handle is None:
            self._open()
        record.setdefault("ts", round(time.time(), 3))
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.records_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- typed records -------------------------------------------------

    def job_submitted(self, job_id: str, spec_payload: dict) -> None:
        self.append({"rec": "submit", "job": job_id,
                     "spec": spec_payload})

    def job_cancelled(self, job_id: str) -> None:
        self.append({"rec": "cancel", "job": job_id})

    def job_done(self, job_id: str, state: str) -> None:
        self.append({"rec": "end", "job": job_id, "state": state})

    # -- replay / rotation ---------------------------------------------

    @classmethod
    def replay(cls, path: Union[str, Path]) -> List[JournaledJob]:
        """Reconstruct per-job state from a journal file, in
        submission order. Torn or malformed lines (a crash can cut
        the final line mid-write) are skipped, never fatal."""
        path = Path(path)
        if path.is_dir():
            path = path / JOURNAL_NAME
        jobs: Dict[str, JournaledJob] = {}
        order: List[str] = []
        if not path.is_file():
            return []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from a mid-append crash
                if not isinstance(record, dict):
                    continue
                kind = record.get("rec")
                job_id = record.get("job")
                # unknown kinds (and the per-point records of older
                # servers): forward/backward-compatible skip
                if kind not in ("submit", "cancel", "end") \
                        or not isinstance(job_id, str):
                    continue
                entry = jobs.get(job_id)
                if entry is None:
                    entry = jobs[job_id] = JournaledJob(job_id)
                    order.append(job_id)
                if kind == "submit":
                    entry.payload = record.get("spec")
                else:
                    entry.state = record.get("state", "cancelled")
        return [jobs[job_id] for job_id in order]

    def rotate(self) -> Optional[Path]:
        """Archive the current journal file to ``<name>.prev`` (one
        generation kept); the next append starts a fresh file.
        Returns the archive path if anything was rotated."""
        self.close()
        if not self.path.is_file():
            return None
        archive = self.path.with_name(self.path.name + ".prev")
        self.path.replace(archive)
        return archive

    def replay_and_rotate(self) -> List[JournaledJob]:
        """Read the journal's job states, then rotate it aside —
        the startup (``--resume``) sequence."""
        entries = self.replay(self.path)
        self.rotate()
        return entries
