"""The campaign matrix reducer (what `python -m repro faults` runs)."""

import gc

import pytest

from repro.config import e6000_config
from repro.errors import ReproError
from repro.faults import FaultKind
from repro.faults.campaign import default_spec, run_campaign
from repro.sim.sweep import SweepPoint, run_sweep
from repro.smp.system import SmpSystem

from .conftest import CPUS, SCALE


def test_default_specs_are_valid_for_every_kind():
    for kind in FaultKind.ALL:
        spec = default_spec(kind, CPUS)
        assert spec.kind == kind
        assert spec.trigger >= 0


def test_matrix_detects_and_reports(config):
    report = run_campaign(kinds=(FaultKind.SPOOF, FaultKind.DROP),
                          policies=("halt", "rekey-replay"),
                          scale=SCALE, config=config)
    assert len(report["entries"]) == 4
    assert report["all_detected"]
    assert report["within_interval"]
    by_cell = {(entry["kind"], entry["policy"]): entry
               for entry in report["entries"]}
    assert by_cell[(FaultKind.SPOOF, "halt")]["halted"]
    assert by_cell[(FaultKind.SPOOF, "rekey-replay")]["completed"]
    assert by_cell[(FaultKind.DROP, "halt")]["mechanism"] == \
        "mac_interval"


def test_unknown_policy_rejected():
    with pytest.raises(ReproError):
        run_campaign(policies=("pray",))


def test_record_diff_pinpoints_divergence(config):
    """`repro faults --record-diff`: every cell carries a divergence
    summary against the clean (fault-free) recording."""
    report = run_campaign(kinds=(FaultKind.DROP,),
                          policies=("halt", "rekey-replay"),
                          scale=SCALE, config=config,
                          record_diff=True)
    assert report["record_diff"] is True
    assert report["clean_cycles"] > 0
    by_policy = {entry["policy"]: entry["divergence"]
                 for entry in report["entries"]}
    for policy, divergence in by_policy.items():
        assert divergence["identical"] is False
        first = divergence["first_divergence"]
        assert first is not None and first["cycle"] >= 0
    # rekey-replay completes, so its cycle delta is measurable; the
    # halt cell stops early and reports no delta.
    assert by_policy["rekey-replay"]["cycles_delta"] is not None
    assert by_policy["halt"]["cycles_delta"] is None


def test_without_record_diff_entries_stay_lean(config):
    report = run_campaign(kinds=(FaultKind.DROP,),
                          policies=("halt",), scale=SCALE,
                          config=config)
    assert "record_diff" not in report
    assert "divergence" not in report["entries"][0]


@pytest.mark.parametrize("fork,record_diff", [
    (True, False), (False, False), (True, True),
    pytest.param("chain", False, id="chain")])
def test_cells_free_their_machines(config, fork, record_diff, tmp_path):
    """A finished run's machine is freed when the run ends: every
    campaign cell's, the clean-prefix machine and (``chain``) each
    point's of a 3-point checkpointed radix sweep chain. Stats
    flushers and layer back-pointers make a dropped machine cyclic
    garbage; with the collector off, every such machine would still
    be alive afterwards."""
    def machines():
        return sum(1 for obj in gc.get_objects()
                   if isinstance(obj, SmpSystem))
    gc.collect()
    gc.disable()
    try:
        before = machines()
        if fork == "chain":
            chain_config = e6000_config(num_processors=2, l2_mb=1)
            results = run_sweep(
                [SweepPoint("radix", chain_config, scale=scale)
                 for scale in (0.02, 0.04, 0.06)],
                parallel=False, checkpoint_dir=tmp_path)
            assert len(results) == 3
        else:
            report = run_campaign(
                kinds=(FaultKind.SPOOF, FaultKind.DROP),
                policies=("halt", "rekey-replay"), scale=SCALE,
                config=config, fork=fork, record_diff=record_diff,
                trigger=40)
            assert len(report["entries"]) == 4
        after = machines()
    finally:
        gc.enable()
    assert after == before
