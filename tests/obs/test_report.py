"""Run reports and wall-clock phase timers."""

import json

from repro.config import e6000_config
from repro.core.senss import build_secure_system
from repro.obs import (REPORT_SCHEMA_VERSION, PhaseTimer, Tracer,
                       build_report, format_report)
from repro.sim.sweep import ENGINE_VERSION
from repro.smp.system import SmpSystem
from repro.workloads.registry import generate


def small_pair():
    config = e6000_config(num_processors=2, auth_interval=10)
    workload = generate("fft", 2, scale=0.05, seed=1)
    baseline = SmpSystem(config.with_senss(False)).run(workload)
    system = build_secure_system(config)
    tracer = Tracer(capacity=0).attach(system)
    secured = system.run(workload)
    return baseline, secured, tracer


class TestBuildReport:
    def test_shape_and_headline(self):
        baseline, secured, tracer = small_pair()
        report = build_report(baseline, secured, workload="fft",
                              num_cpus=2, scale=0.05,
                              histograms=tracer.histogram_summaries())
        assert report["kind"] == "repro-report"
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["engine_version"] == ENGINE_VERSION
        assert report["workload"] == "fft"
        assert report["configs"]["baseline"]["cycles"] == baseline.cycles
        assert report["configs"]["secured"]["cycles"] == secured.cycles
        assert report["slowdown_percent"] >= 0
        assert "obs.miss_latency" in report["histograms"]

    def test_counters_subset_only(self):
        baseline, secured, _ = small_pair()
        report = build_report(baseline, secured, workload="fft",
                              num_cpus=2, scale=0.05)
        counters = report["configs"]["secured"]["counters"]
        assert "bus.transactions" in counters
        assert "senss.protected_messages" in counters
        # Per-CPU cache counters stay out of the compact block.
        assert not any(name.startswith("cpu") for name in counters)

    def test_hit_rate_present(self):
        baseline, secured, _ = small_pair()
        report = build_report(baseline, secured, workload="fft",
                              num_cpus=2, scale=0.05)
        rate = report["configs"]["baseline"]["hit_rate"]
        assert 0.0 < rate <= 1.0

    def test_is_json_round_trippable(self):
        baseline, secured, tracer = small_pair()
        report = build_report(baseline, secured, workload="fft",
                              num_cpus=2, scale=0.05,
                              histograms=tracer.histogram_summaries(),
                              timings={"simulate": 0.5})
        assert json.loads(json.dumps(report)) == report

    def test_format_renders_all_sections(self):
        baseline, secured, tracer = small_pair()
        timer = PhaseTimer()
        timer.add("simulate", 1.25)
        report = build_report(baseline, secured, workload="fft",
                              num_cpus=2, scale=0.05,
                              histograms=tracer.histogram_summaries(),
                              timings=timer.as_dict())
        text = format_report(report)
        assert "Run report" in text
        assert "slowdown" in text
        assert "obs.miss_latency" in text
        assert "Secured-run counters" in text
        assert "Wall-clock phases" in text

    def test_format_skips_empty_sections(self):
        baseline, secured, _ = small_pair()
        report = build_report(baseline, secured, workload="fft",
                              num_cpus=2, scale=0.05)
        text = format_report(report)
        assert "Latency / distribution" not in text
        assert "Wall-clock phases" not in text


class TestPhaseTimer:
    def test_phase_context_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            pass
        with timer.phase("work"):
            pass
        assert timer.seconds("work") >= 0.0
        assert timer._counts["work"] == 2

    def test_add_and_seconds(self):
        timer = PhaseTimer()
        timer.add("generate", 0.5)
        timer.add("generate", 0.25)
        assert timer.seconds("generate") == 0.75
        assert timer.seconds("absent") == 0.0

    def test_merge_from_worker_dict(self):
        timer = PhaseTimer()
        timer.add("simulate", 1.0)
        timer.merge({"simulate": 2.0, "cache": 0.5})
        assert timer.seconds("simulate") == 3.0
        assert timer.seconds("cache") == 0.5

    def test_as_dict_sorted_and_rounded(self):
        timer = PhaseTimer()
        timer.add("zeta", 0.1234567891)
        timer.add("alpha", 1.0)
        as_dict = timer.as_dict()
        assert list(as_dict) == ["alpha", "zeta"]
        assert as_dict["zeta"] == round(0.1234567891, 6)

    def test_exception_inside_phase_still_counts(self):
        timer = PhaseTimer()
        try:
            with timer.phase("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert timer._counts["boom"] == 1
