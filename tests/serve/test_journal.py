"""The job journal: WAL append, replay, torn tails, rotation.

File-level tests, plus one scheduler resume of a journal in the older
per-point format. The scheduler's use of the journal (resume
semantics, drain-under-fire) is covered in test_resilience.py.
"""

import asyncio
import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor

from repro.serve.journal import (JOURNAL_NAME, JobJournal,
                                 JournaledJob)
from repro.serve.scheduler import Scheduler
from repro.smp.metrics import SimulationResult


def payload(seeds=(0, 1)):
    return {"tenant": "t", "weight": 1,
            "points": [{"workload": "fft", "scale": 0.05,
                        "seed": seed, "config": {}}
                       for seed in seeds]}


class TestAppendReplay:
    def test_replay_reconstructs_incomplete_job(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.close()

        entries = JobJournal.replay(tmp_path)
        assert entries == [JournaledJob("job-000001", payload(), None)]
        assert entries[0].incomplete

    def test_terminal_job_not_incomplete(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.job_done("job-000001", "done")
        journal.close()

        entries = JobJournal.replay(tmp_path)
        assert entries[0].state == "done"
        assert not entries[0].incomplete

    def test_cancelled_job_not_resumed(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.job_cancelled("job-000001")
        journal.close()
        entries = JobJournal.replay(tmp_path)
        assert entries[0].state == "cancelled"
        assert not entries[0].incomplete

    def test_job_record_shapes(self, tmp_path):
        """Only job-level records are written: the header, submit,
        cancel and end — nothing per point."""
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.job_submitted("job-000002", payload())
        journal.job_cancelled("job-000001")
        journal.job_done("job-000002", "done")
        journal.close()
        records = [json.loads(line) for line in
                   (tmp_path / JOURNAL_NAME).read_text().splitlines()]
        assert [record["rec"] for record in records] == \
            ["open", "submit", "submit", "cancel", "end"]
        assert journal.records_written == 5
        assert {field.name for field in
                dataclasses.fields(JournaledJob)} == \
            {"job_id", "payload", "state"}

    def test_replay_preserves_submission_order(self, tmp_path):
        journal = JobJournal(tmp_path)
        for serial in (1, 2, 3):
            journal.job_submitted(f"job-{serial:06d}", payload())
        journal.close()
        ids = [entry.job_id
               for entry in JobJournal.replay(tmp_path)]
        assert ids == ["job-000001", "job-000002", "job-000003"]


class TestDurability:
    def test_torn_tail_is_skipped(self, tmp_path):
        """A crash mid-append leaves a half-written last line; replay
        must keep everything before it."""
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.job_submitted("job-000002", payload())
        journal.job_done("job-000001", "done")
        journal.close()
        path = tmp_path / JOURNAL_NAME
        with path.open("ab") as handle:
            handle.write(b'{"job": "job-000002", "rec": "en')  # torn
        entries = JobJournal.replay(tmp_path)
        assert [(entry.job_id, entry.state) for entry in entries] == \
            [("job-000001", "done"), ("job-000002", None)]
        assert entries[1].incomplete

    def test_unknown_record_kinds_are_ignored(self, tmp_path):
        """Forward compatibility: a journal written by a newer version
        with extra record kinds still replays."""
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.close()
        path = tmp_path / JOURNAL_NAME
        with path.open("a") as handle:
            handle.write(json.dumps({"rec": "job", "kind": "hover",
                                     "job": "job-000001"}) + "\n")
            handle.write(json.dumps({"rec": "telemetry",
                                     "v": 99}) + "\n")
        entries = JobJournal.replay(tmp_path)
        assert len(entries) == 1
        assert entries[0].incomplete

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert JobJournal.replay(tmp_path / "nowhere") == []

    def test_records_flushed_per_append(self, tmp_path):
        """Another process (replay after a SIGKILL) must see every
        record appended so far without a clean close."""
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        # No close(): read the file out from under the writer.
        entries = JobJournal.replay(tmp_path)
        assert [entry.job_id for entry in entries] == ["job-000001"]
        journal.close()


class TestRotation:
    def test_rotate_archives_and_resets(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.rotate()
        assert (tmp_path / (JOURNAL_NAME + ".prev")).exists()
        assert JobJournal.replay(tmp_path) == []
        # The journal keeps working after rotation.
        journal.job_submitted("job-000002", payload())
        assert [entry.job_id
                for entry in JobJournal.replay(tmp_path)] == \
            ["job-000002"]
        journal.close()

    def test_replay_and_rotate_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        entries = journal.replay_and_rotate()
        assert [entry.job_id for entry in entries] == ["job-000001"]
        assert JobJournal.replay(tmp_path) == []
        journal.close()


class TestPaths:
    def test_dir_path_appends_journal_name(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.close()
        assert (tmp_path / JOURNAL_NAME).exists()

    def test_explicit_file_path_used_verbatim(self, tmp_path):
        path = tmp_path / "custom.jsonl"
        journal = JobJournal(path)
        journal.job_submitted("job-000001", payload())
        journal.close()
        assert path.exists()

    def test_unborn_state_dir_is_created(self, tmp_path):
        """``--state-dir`` paths that don't exist yet are directories
        to create, not journal file names."""
        state = tmp_path / "state"
        journal = JobJournal(state)
        journal.job_submitted("job-000001", payload())
        journal.close()
        assert state.is_dir()
        assert (state / JOURNAL_NAME).exists()
        assert len(JobJournal.replay(state)) == 1

    def test_header_carries_schema_version(self, tmp_path):
        """A fresh journal opens with a versioned header record."""
        journal = JobJournal(tmp_path)
        journal.job_submitted("job-000001", payload())
        journal.close()
        lines = [json.loads(line) for line in
                 (tmp_path / JOURNAL_NAME).read_text().splitlines()]
        assert lines[0]["rec"] == "open"
        assert lines[0]["v"] == 1
        assert all("ts" in record for record in lines)


#: A journal as servers that journalled every point wrote it: per-point
#: ``start`` / ``done`` / ``fail`` / ``retry`` records between the job
#: records, ending in a line torn by a crash mid-append.
PER_POINT_JOURNAL = [
    {"rec": "open", "v": 1},
    {"rec": "submit", "job": "job-000001", "spec": payload((0, 1))},
    {"rec": "start", "job": "job-000001", "index": 0, "key": "k0",
     "attempt": 1},
    {"rec": "done", "job": "job-000001", "index": 0,
     "source": "executed"},
    {"rec": "done", "job": "job-000001", "index": 1, "source": "cache"},
    {"rec": "end", "job": "job-000001", "state": "done"},
    {"rec": "submit", "job": "job-000002", "spec": payload((2, 3))},
    {"rec": "start", "job": "job-000002", "index": 0, "key": "k2",
     "attempt": 1},
    {"rec": "done", "job": "job-000002", "index": 0,
     "source": "executed"},
    {"rec": "start", "job": "job-000002", "index": 1, "key": "k3",
     "attempt": 1},
    {"rec": "retry", "job": "job-000002", "index": 1, "attempt": 2,
     "error": "worker died"},
    {"rec": "submit", "job": "job-000003", "spec": payload((4,))},
    {"rec": "start", "job": "job-000003", "index": 0, "key": "k4",
     "attempt": 1},
    {"rec": "cancel", "job": "job-000003"},
    {"rec": "submit", "job": "job-000004", "spec": payload((5,))},
    {"rec": "start", "job": "job-000004", "index": 0, "key": "k5",
     "attempt": 1},
    {"rec": "fail", "job": "job-000004", "index": 0, "error": "boom",
     "quarantined": True},
    {"rec": "end", "job": "job-000004", "state": "failed"},
    {"rec": "submit", "job": "job-000005", "spec": payload((6,))},
    {"rec": "start", "job": "job-000005", "index": 0, "key": "k6",
     "attempt": 1},
    {"rec": "fail", "job": "job-000005", "index": 0, "error": "boom",
     "quarantined": False},
]


def write_per_point_journal(state_dir):
    state_dir.mkdir()
    with (state_dir / JOURNAL_NAME).open("w") as handle:
        for record in PER_POINT_JOURNAL:
            record = dict(record, ts=1700000000.0)
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.write('{"attempt": 1, "index": 0, "job": "job-0000')


def fake_run(point):
    return SimulationResult(
        workload=point.workload, num_cpus=2, cycles=100 + point.seed,
        per_cpu_cycles=[100 + point.seed, 99], stats={}), 0.001


class TestPerPointJournal:
    def test_replay_reads_only_job_records(self, tmp_path):
        write_per_point_journal(tmp_path / "state")
        entries = JobJournal.replay(tmp_path / "state")
        assert [(entry.job_id, entry.state) for entry in entries] == [
            ("job-000001", "done"), ("job-000002", None),
            ("job-000003", "cancelled"), ("job-000004", "failed"),
            ("job-000005", None)]

    def test_scheduler_resumes_incomplete_jobs_under_their_ids(
            self, tmp_path):
        """A journal with per-point records resumes exactly its
        unfinished jobs, with their original ids and specs; the fresh
        journal holds job-level records only."""
        state = tmp_path / "state"
        write_per_point_journal(state)

        async def scenario():
            pool = ThreadPoolExecutor(max_workers=1)
            scheduler = Scheduler(max_workers=1, executor=pool,
                                  runner=fake_run, journal=state)
            try:
                resumed = scheduler.resume()
                assert [job.id for job in resumed] == \
                    ["job-000002", "job-000005"]
                assert [[point.seed for point in job.spec.points]
                        for job in resumed] == [[2, 3], [6]]
                for job in resumed:
                    while not job.terminal:
                        await asyncio.sleep(0.005)
                    assert job.state == "done"
            finally:
                scheduler.journal.close()
                pool.shutdown(wait=False)
        asyncio.run(scenario())
        records = [json.loads(line) for line in
                   (state / JOURNAL_NAME).read_text().splitlines()]
        assert [(record["rec"], record.get("job")) for record in
                records] == [
            ("open", None), ("submit", "job-000002"),
            ("submit", "job-000005"), ("end", "job-000002"),
            ("end", "job-000005")]
        assert (state / (JOURNAL_NAME + ".prev")).exists()
