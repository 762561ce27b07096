"""Perturbation replays and structured recording diffs."""

from dataclasses import replace

import pytest

from repro.config import KB, e6000_config
from repro.errors import ConfigError
from repro.obs import (PERTURBATIONS, apply_perturbation,
                       diff_recordings, format_diff,
                       parse_perturbation, record_run,
                       replay_recording)
from repro.sim.sweep import SweepPoint, point_key


def _point(scale=0.02):
    config = e6000_config(num_processors=2, auth_interval=10)
    config = config.with_l2_size(64 * KB).with_masks(8)
    config = config.with_memprotect(encryption_enabled=True,
                                    integrity_enabled=True)
    return SweepPoint("fft", config, scale=scale, seed=0)


class TestParsePerturbation:
    def test_accepts_every_knob(self):
        for name in PERTURBATIONS:
            assert parse_perturbation(f"{name}=1") == (name, "1")

    @pytest.mark.parametrize("spec", ["", "=", "auth_interval",
                                      "auth_interval=", "=5"])
    def test_rejects_junk(self, spec):
        with pytest.raises(ConfigError, match="name=value"):
            parse_perturbation(spec)

    def test_rejects_unknown_knob(self):
        with pytest.raises(ConfigError, match="unknown perturbation"):
            parse_perturbation("bogus=1")

    def test_engine_is_no_longer_a_perturbation(self):
        """One engine: there is no backend left to swap."""
        assert "engine" not in PERTURBATIONS
        with pytest.raises(ConfigError, match="unknown perturbation"):
            parse_perturbation("engine=vector")

    def test_rejects_non_integer(self):
        point = _point()
        with pytest.raises(ConfigError, match="integer"):
            apply_perturbation(point, "auth_interval", "soon")


class TestApplyPerturbation:
    def test_auth_interval(self):
        perturbed = apply_perturbation(_point(), "auth_interval", "32")
        assert perturbed.config.senss.auth_interval == 32
        assert perturbed.plan is None

    def test_masks_none_means_perfect(self):
        perturbed = apply_perturbation(_point(), "masks", "none")
        assert perturbed.config.senss.num_masks is None

    def test_fault_yields_plan(self):
        perturbed = apply_perturbation(_point(), "fault", "drop:5")
        plan = perturbed.plan
        assert replace(perturbed, plan=None, policy="halt") == _point()
        assert perturbed.policy == "rekey-replay"
        assert len(plan) == 1
        assert plan.specs[0].kind == "drop"
        assert plan.specs[0].trigger == 5

    def test_fault_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            apply_perturbation(_point(), "fault", "gremlin")


class TestDiff:
    def test_unperturbed_replay_diffs_empty(self):
        source = record_run(_point())
        replayed = replay_recording(source)
        report = diff_recordings(source, replayed)
        assert report["identical"] is True
        assert report["first_divergence"] is None
        assert report["counters"] == {}
        assert report["cycles"]["delta"] == 0
        assert report["phases"]["diverged"] == 0
        assert report["histogram"]["zero_skew"] == \
            report["histogram"]["matched"]
        assert "identical" in format_diff(report)

    def test_auth_interval_perturbation_pinpoints_divergence(self):
        source = record_run(_point())
        replayed = replay_recording(source,
                                    perturb="auth_interval=32")
        report = diff_recordings(source, replayed)
        assert report["identical"] is False
        first = report["first_divergence"]
        assert first is not None
        assert first["index"] >= 0
        assert first["a"] != first["b"]
        assert report["cycles"]["delta"] == \
            replayed.cycles - source.cycles
        assert report["counters"], "auth counters must differ"
        rendered = format_diff(report)
        assert "First divergence" in rendered
        assert "auth_interval=32" in rendered

    def test_fault_perturbation_completes_and_diverges(self):
        source = record_run(_point())
        replayed = replay_recording(source, perturb="fault=drop")
        assert replayed.halted is None, \
            "fault replays run under rekey-replay and complete"
        assert replayed.payload["fault_plan"]["policy"] == \
            "rekey-replay"
        report = diff_recordings(source, replayed)
        assert report["identical"] is False
        side = report["first_divergence"]["b"]
        assert side["name"] == "fault_inject"

    def test_a_faulted_recording_replays_with_its_fault(self):
        """A fault-perturbed recording's point carries its plan and
        policy: its fingerprint is that cell's key, and an unperturbed
        replay of it re-runs the fault and diffs empty."""
        faulted = replay_recording(record_run(_point()),
                                   perturb="fault=drop:20")
        cell = faulted.point()
        assert cell.plan.specs[0].trigger == 20
        assert cell.policy == "rekey-replay"
        assert faulted.fingerprint == point_key(cell) \
            != point_key(_point())
        again = replay_recording(faulted)
        assert again.fingerprint == faulted.fingerprint
        assert diff_recordings(faulted, again)["identical"] is True

    def test_diff_survives_length_mismatch(self):
        source = record_run(_point())
        shorter = record_run(_point(scale=1.0))
        assert shorter.events_total != source.events_total
        report = diff_recordings(source, shorter)
        assert report["identical"] is False
        assert report["first_divergence"] is not None
        format_diff(report)  # must render without raising

    def test_snapshot_cadence_override(self):
        source = record_run(_point())
        replayed = replay_recording(source, snapshot_every=4)
        assert replayed.snapshot_every == 4
        # events are unaffected by the snapshot cadence
        assert replayed.payload["events"] == \
            source.payload["events"]
