"""Deterministic recordings: byte-identity, checksums, persistence."""

import pytest

from repro.config import KB, e6000_config
from repro.errors import TraceError
from repro.obs import (RECORDING_SCHEMA_VERSION, Recording, record_run)
from repro.sim.sweep import ENGINE_VERSION, SweepPoint, point_key


def _point(scale=0.02, seed=0):
    config = e6000_config(num_processors=2, auth_interval=10)
    config = config.with_l2_size(64 * KB).with_masks(8)
    config = config.with_memprotect(encryption_enabled=True,
                                    integrity_enabled=True)
    return SweepPoint("fft", config, scale=scale, seed=seed)


class TestDeterminism:
    def test_same_point_records_byte_identical(self):
        first = record_run(_point())
        second = record_run(_point())
        assert first.to_bytes() == second.to_bytes()

    def test_fingerprint_matches_point_key(self):
        recording = record_run(_point())
        assert recording.fingerprint == point_key(_point())

    def test_different_seed_differs(self):
        assert record_run(_point(seed=0)).to_bytes() != \
            record_run(_point(seed=1)).to_bytes()


class TestPayloadShape:
    def test_core_fields(self):
        recording = record_run(_point())
        payload = recording.payload
        assert payload["kind"] == "repro-recording"
        assert payload["schema_version"] == RECORDING_SCHEMA_VERSION
        assert payload["engine_version"] == ENGINE_VERSION
        assert payload["workload"]["name"] == "fft"
        assert payload["events_total"] == len(payload["events"]["kind"])
        assert payload["result"]["cycles"] == recording.cycles
        assert payload["halted"] is None
        # no engine selector in the config: recordings written before
        # the backend registry was removed keep their bytes
        assert "engine" not in payload["config"]

    def test_snapshots_delta_encoded_and_cumulative(self):
        recording = record_run(_point())
        assert recording.snapshots, "auth checkpoints must snapshot"
        cycles = [snap["cycle"] for snap in recording.snapshots]
        assert cycles == sorted(cycles)
        # cumulative last-snapshot counters never exceed the final ones
        final = recording.final_stats()
        cumulative = {}
        for snap in recording.snapshots:
            cumulative.update(snap["counters"])
        for name, value in cumulative.items():
            assert value <= final[name]

    def test_snapshot_every_thins_snapshots(self):
        every = record_run(_point())
        thinned = record_run(_point(), snapshot_every=4)
        assert 0 < len(thinned.snapshots) < len(every.snapshots)
        assert thinned.snapshot_every == 4

    def test_events_roundtrip(self):
        recording = record_run(_point())
        events = list(recording.events())
        assert len(events) == recording.events_total
        assert all(event.cycle >= 0 for event in events[:100])

    def test_point_roundtrip(self):
        recording = record_run(_point())
        rebuilt = recording.point()
        assert point_key(rebuilt) == recording.fingerprint

    def test_to_result_matches_plain_run(self):
        from repro.sim.sweep import run_point
        recording = record_run(_point())
        plain = run_point(_point())
        restored = recording.to_result()
        assert restored.cycles == plain.cycles
        assert list(restored.per_cpu_cycles) == \
            list(plain.per_cpu_cycles)
        assert restored.stats == plain.stats


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        recording = record_run(_point())
        path = recording.save(tmp_path / "nested" / "run.rec.json")
        loaded = Recording.load(path)
        assert loaded.to_bytes() == recording.to_bytes()
        assert loaded.core_equal(recording)

    def test_checksum_detects_tampering(self, tmp_path):
        recording = record_run(_point())
        path = recording.save(tmp_path / "run.rec.json")
        text = path.read_text().replace('"halted":null',
                                        '"halted":"oops"')
        path.write_text(text)
        with pytest.raises(TraceError, match="checksum"):
            Recording.load(path)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(TraceError, match="repro recording"):
            Recording.load(path)

    def test_rejects_unknown_schema_version(self, tmp_path):
        recording = record_run(_point())
        recording.payload["schema_version"] = \
            RECORDING_SCHEMA_VERSION + 1
        path = recording.save(tmp_path / "future.rec.json")
        with pytest.raises(TraceError, match="schema version"):
            Recording.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            Recording.load(tmp_path / "absent.rec.json")

    def test_timings_outside_checksum(self, tmp_path):
        recording = record_run(_point(),
                               timings={"record": 1.25})
        path = recording.save(tmp_path / "timed.rec.json")
        loaded = Recording.load(path)
        assert loaded.payload["timings"] == {"record": 1.25}
        # and a timing-free twin is core-equal but not byte-equal
        bare = record_run(_point())
        assert bare.core_equal(loaded)
        assert bare.to_bytes() != loaded.to_bytes()
