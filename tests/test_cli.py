"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main


def test_overhead_command(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "640" in out
    assert "1161" in out


def test_attacks_command(capsys):
    assert main(["attacks"]) == 0
    out = capsys.readouterr().out
    assert out.count("DETECTED") == 5
    assert "missed" not in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("fft", "radix", "barnes", "lu", "ocean"):
        assert name in out


def test_run_command(capsys):
    assert main(["run", "lu", "--cpus", "2", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "slowdown" in out
    assert "traffic increase" in out


def test_run_with_masks_and_memprotect(capsys):
    assert main(["run", "fft", "--cpus", "2", "--scale", "0.1",
                 "--masks", "2", "--memprotect"]) == 0
    assert "slowdown" in capsys.readouterr().out


def test_sweep_command(capsys):
    assert main(["sweep", "ocean", "--cpus", "2", "--scale", "0.1",
                 "--intervals", "100", "1"]) == 0
    out = capsys.readouterr().out
    assert "interval" in out
    assert "100" in out


def test_unknown_workload_rejected():
    from repro.errors import TraceError
    with pytest.raises(TraceError):
        main(["run", "quicksort"])


def test_run_with_trace_file(tmp_path, capsys):
    from repro.workloads.registry import generate
    from repro.workloads.tracefile import save_workload
    trace_path = tmp_path / "small.trace"
    save_workload(generate("ocean", 2, scale=0.05), trace_path)
    assert main(["run", str(trace_path), "--cpus", "2"]) == 0
    assert "slowdown" in capsys.readouterr().out


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_sweep_with_trace_file(tmp_path, capsys):
    from repro.workloads.registry import generate
    from repro.workloads.tracefile import save_workload
    trace_path = tmp_path / "sweepme.trace"
    save_workload(generate("lu", 2, scale=0.05), trace_path)
    assert main(["sweep", str(trace_path), "--cpus", "2",
                 "--intervals", "100", "1"]) == 0
    assert "interval" in capsys.readouterr().out


def test_version_flag(capsys):
    from repro import __version__
    from repro.sim.sweep import ENGINE_VERSION
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert f"repro {__version__}" in out
    assert f"engine {ENGINE_VERSION}" in out


def test_version_reports_default_checkpoint_store(tmp_path, monkeypatch,
                                                  capsys):
    """``--version`` appends the default store's snapshot count and
    size on the same line; a checkout without a store prints none."""
    from repro import __version__
    from repro.config import e6000_config
    from repro.sim.checkpoint import DEFAULT_CHECKPOINT_DIR, \
        CheckpointStore
    from repro.sim.sweep import ENGINE_VERSION, PointRunner, SweepPoint
    monkeypatch.chdir(tmp_path)
    head = f"repro {__version__} (engine {ENGINE_VERSION})"
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out == head + "\n"

    store = CheckpointStore(DEFAULT_CHECKPOINT_DIR)
    PointRunner(checkpoints=store)(SweepPoint(
        "radix", e6000_config(num_processors=2), scale=0.02, seed=0))
    stats = store.stats()
    assert stats["count"] == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == (
        f"{head} [checkpoints: 1 snapshots, "
        f"{stats['bytes'] / 1e6:.1f} MB]\n")


def test_trace_command_writes_valid_json(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    out_path = tmp_path / "trace.json"
    assert main(["trace", "fft", "--cpus", "2", "--scale", "0.05",
                 "--memprotect", "--interval", "10",
                 "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert validate_chrome_trace(payload) > 0
    err = capsys.readouterr().err
    assert "events" in err
    assert "Recorded events" in err


def test_trace_command_to_stdout(capsys):
    import json
    assert main(["trace", "lu", "--cpus", "2", "--scale", "0.05",
                 "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["otherData"]["workload"] == "lu"


def test_trace_capacity_bounds_the_ring(tmp_path):
    import json
    out_path = tmp_path / "trace.json"
    assert main(["trace", "fft", "--cpus", "2", "--scale", "0.05",
                 "--memprotect", "--capacity", "64",
                 "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["otherData"]["events_dropped"] > 0
    # 64 events plus the track-metadata records.
    assert len(payload["traceEvents"]) <= 64 + 3


def test_report_command(capsys):
    assert main(["report", "fft", "--cpus", "2", "--scale",
                 "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Run report" in out
    assert "slowdown" in out
    assert "obs.miss_latency" in out
    assert "p95" in out
    assert "Wall-clock phases" in out


def test_report_command_json_output(tmp_path):
    import json
    json_path = tmp_path / "report.json"
    assert main(["report", "fft", "--cpus", "2", "--scale", "0.05",
                 "--memprotect", "--json", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["kind"] == "repro-report"
    assert payload["workload"] == "fft"
    assert payload["configs"]["secured"]["cycles"] > \
        payload["configs"]["baseline"]["cycles"]
    assert "simulate.secured" in payload["timings"]


def test_faults_command(tmp_path, capsys):
    import json
    json_path = tmp_path / "faults.json"
    assert main(["faults", "--scale", "0.02",
                 "--kinds", "spoof", "drop",
                 "--policies", "halt", "rekey-replay",
                 "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "Fault-injection campaign" in out
    assert "spoof_self" in out
    assert "mac_interval" in out
    assert "all detected      : True" in out
    payload = json.loads(json_path.read_text())
    assert payload["all_detected"]
    assert payload["within_interval"]
    assert len(payload["entries"]) == 4


def test_faults_command_verify_identity(capsys):
    assert main(["faults", "--scale", "0.02", "--kinds", "merkle-flip",
                 "--policies", "halt", "--verify-identity"]) == 0
    assert "identity w/o fault: True" in capsys.readouterr().out


def test_report_empty_trace_exits_cleanly(tmp_path, capsys):
    from repro.smp.trace import Workload
    from repro.workloads.tracefile import save_workload
    trace_path = tmp_path / "empty.trace"
    save_workload(Workload("empty", [[], []]), trace_path)
    assert main(["report", str(trace_path), "--cpus", "2"]) == 1
    err = capsys.readouterr().err
    assert "no memory accesses" in err or "contains no" in err


def test_record_replay_diff_workflow(tmp_path, capsys):
    """The tentpole loop: record, replay perturbed, diff pinpoints."""
    import json
    rec = tmp_path / "run.rec.json"
    assert main(["record", "fft", "--cpus", "2", "--scale", "0.05",
                 "--interval", "10", "--memprotect",
                 "--out", str(rec)]) == 0
    streams = capsys.readouterr()
    combined = (streams.out + streams.err).lower()
    assert "recorded" in combined or "events" in combined

    replayed = tmp_path / "perturbed.replay.json"
    # the perturbed replay diverges, so --diff exits 1 (like diff(1))
    assert main(["replay", str(rec), "--perturb", "auth_interval=50",
                 "--out", str(replayed), "--diff"]) == 1
    out = capsys.readouterr().out
    assert "First divergence" in out

    diff_json = tmp_path / "diff.json"
    assert main(["diff", str(rec), str(replayed),
                 "--json", str(diff_json)]) == 1
    payload = json.loads(diff_json.read_text())
    assert payload["kind"] == "repro-recording-diff"
    assert payload["identical"] is False
    assert payload["first_divergence"] is not None
    assert payload["perturbation"]["name"] == "auth_interval"


def test_diff_identical_recordings_exit_zero(tmp_path, capsys):
    first = tmp_path / "a.rec.json"
    second = tmp_path / "b.rec.json"
    for path in (first, second):
        assert main(["record", "lu", "--cpus", "2", "--scale", "0.05",
                     "--out", str(path)]) == 0
    assert main(["diff", str(first), str(second)]) == 0
    out = capsys.readouterr().out
    assert "identical" in out


def test_record_timings_keep_the_recording_valid(tmp_path):
    """--timings stamps wall-clock phases outside the checksum: the
    file still loads (checksum verified) and records the same run as
    an untimed recording of the point."""
    import json
    from repro.obs import Recording
    timed = tmp_path / "timed.rec.json"
    plain = tmp_path / "plain.rec.json"
    args = ["record", "fft", "--cpus", "2", "--scale", "0.05"]
    assert main(args + ["--timings", "--out", str(timed)]) == 0
    assert main(args + ["--out", str(plain)]) == 0
    assert json.loads(timed.read_text())["timings"]["record"] > 0
    recording = Recording.load(timed)
    assert recording.core_equal(Recording.load(plain))


def test_diff_missing_file_exits_two(tmp_path, capsys):
    assert main(["diff", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_record_rejects_trace_workloads(tmp_path):
    from repro.workloads.registry import generate
    from repro.workloads.tracefile import save_workload
    trace_path = tmp_path / "t.trace"
    save_workload(generate("fft", 2, scale=0.05), trace_path)
    with pytest.raises(SystemExit, match="registry workload"):
        main(["record", str(trace_path), "--cpus", "2"])


def test_faults_record_diff_column(capsys):
    assert main(["faults", "--scale", "0.02", "--kinds", "drop",
                 "--policies", "rekey-replay",
                 "--record-diff"]) == 0
    out = capsys.readouterr().out
    assert "diverges vs clean" in out
    assert "fault_inject" in out


def test_profile_breakdown_and_cprofile(capsys):
    """``--breakdown`` (the instrumented memprotect split) and
    ``--cprofile`` both run and print their tables."""
    assert main(["profile", "fft", "--cpus", "2", "--scale", "0.02",
                 "--repeats", "1", "--breakdown", "--cprofile"]) == 0
    out = capsys.readouterr().out
    rows = {line.rsplit(None, 2)[0]: line.split()[-1]
            for line in out.splitlines()
            if line.endswith("%") and not line.startswith(" ")}
    for bucket in ("verify climb", "leaf hashing", "pad generation",
                   "pad-cache coherence", "memprotect dispatch",
                   "core simulator (caches/bus/coherence)"):
        assert bucket in rows
    assert rows["total"] == "100.0%"
    assert "function calls" in out
