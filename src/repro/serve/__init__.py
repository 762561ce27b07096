"""Simulation-as-a-service: the async sweep server (``repro serve``).

The sweep runner (:mod:`repro.sim.sweep`) serves one caller: it spins
up a worker pool, runs the points, and tears everything down — every
figure suite pays the pool spawn, module imports and AES key-schedule
warmup again. This package turns that into a long-lived service:

- :class:`~repro.serve.scheduler.Scheduler` — accepts jobs, orders
  their points through a per-tenant **weighted fair queue**
  (:mod:`~repro.serve.fairqueue`), executes them on one **warm
  process pool** that survives across jobs, and **dedupes** identical
  points across jobs and tenants on
  :func:`~repro.sim.sweep.point_key` plus one shared
  :class:`~repro.sim.sweep.ResultCache`;
- :class:`~repro.serve.http.ServeHTTP` — a stdlib-only asyncio
  HTTP/1.1 front end (``POST /v1/jobs``, NDJSON progress streams,
  429 backpressure, graceful drain);
- :class:`~repro.serve.client.ServeClient` — the blocking client the
  ``repro submit`` / ``repro jobs`` CLI commands use, with seeded
  transport retries and a resumable event stream;
- :class:`~repro.serve.journal.JobJournal` — the append-only JSONL
  WAL behind ``repro serve --state-dir``/``--resume`` (crashed
  servers re-admit incomplete jobs; docs/resilience.md).

The worker pool is the sweep runner's own
:class:`~repro.sim.pool.WorkerPool` (kill-and-respawn on a dead or
hung worker) with ``forkserver`` workers; the scheduler arms each
point's deadline itself.

Results served over the wire are bit-identical — cycles, per-CPU
clocks and every statistic — to a direct :func:`run_sweep` call
(pinned by tests/serve/test_http.py); the NDJSON progress events
reuse the Chrome trace-event schema
(:data:`repro.obs.schema.TRACE_EVENT_SCHEMA`, ``cat: "serve"``), so a
captured stream loads in Perfetto. See docs/serving.md.
"""

from .client import ServeClient
from .fairqueue import WeightedFairQueue
from .jobs import JobSpec, parse_job_request, point_from_dict, \
    point_to_dict, result_from_dict, result_to_dict
from .journal import JobJournal, JournaledJob
from .scheduler import Job, Scheduler

__all__ = [
    "Job",
    "JobJournal",
    "JobSpec",
    "JournaledJob",
    "Scheduler",
    "ServeClient",
    "WeightedFairQueue",
    "parse_job_request",
    "point_from_dict",
    "point_to_dict",
    "result_from_dict",
    "result_to_dict",
]
