"""The campaign matrix reducer (what `python -m repro faults` runs)."""

import gc
import multiprocessing
import os

import pytest

from repro.config import e6000_config
from repro.errors import ReproError, SweepError
from repro.faults import FaultKind
from repro.faults.campaign import default_spec, run_campaign
from repro.sim import checkpoint
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
def test_cells_free_their_machines(config, fork, record_diff, tmp_path,
                                  monkeypatch):
    """A finished run's machine is freed when the run ends: every
    campaign cell's, the clean-prefix machine and (``chain``) each
    point's of a 3-point checkpointed radix sweep chain. Stats
    flushers and layer back-pointers make a dropped machine cyclic
    garbage; with the collector off, every such machine would still
    be alive afterwards. The cells run in this process, where the
    count can see them."""
    monkeypatch.setenv("REPRO_SWEEP_PARALLEL", "0")
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


CELLS = dict(kinds=(FaultKind.SPOOF, FaultKind.DROP),
             policies=("halt", "rekey-replay"), scale=SCALE)


def serial_report(monkeypatch, **kwargs):
    with monkeypatch.context() as serial:
        serial.setenv("REPRO_SWEEP_PARALLEL", "0")
        return run_campaign(**kwargs)


@pytest.mark.parametrize("fork,record_diff", [
    (True, False), (False, False), (True, True)])
def test_pool_report_equals_the_serial_one(config, fork, record_diff,
                                           monkeypatch):
    """Cells on the sweep's worker pool build the same report, entry
    for entry and in the same order, as cells run one after another
    in this process; no pool worker outlives the campaign."""
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
    kwargs = dict(CELLS, config=config, fork=fork,
                  record_diff=record_diff, trigger=40)
    if record_diff:
        kwargs["kinds"] = (FaultKind.DROP,)   # two recorded cells
    pooled = run_campaign(**kwargs)
    assert multiprocessing.active_children() == []
    assert pooled == serial_report(monkeypatch, **kwargs)


def killing_fork_point(monkeypatch, dies):
    """Monkeypatch the run driver so that the ``(drop, halt)`` cell
    kills the pool worker it runs in while ``dies()`` is true."""
    parent = os.getpid()
    real_fork_point = checkpoint.fork_point

    def fork_point(point, snapshot, workload, **kwargs):
        cell = (point.plan.specs[0].kind, point.policy)
        if cell == (FaultKind.DROP, "halt") and os.getpid() != parent \
                and dies():
            os._exit(3)
        return real_fork_point(point, snapshot, workload, **kwargs)

    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
    monkeypatch.setattr(checkpoint, "fork_point", fork_point)


def test_a_cell_whose_worker_dies_once_is_retried(config, monkeypatch,
                                                  tmp_path):
    """A cell whose worker process dies mid-run is retried by
    ``run_sweep`` on a fresh pool: the report is the serial one, and
    no worker outlives the campaign."""
    died = tmp_path / "died"

    def dies_once():
        if died.exists():
            return False
        died.touch()
        return True

    killing_fork_point(monkeypatch, dies_once)
    report = run_campaign(config=config, **CELLS)
    assert died.exists()
    assert multiprocessing.active_children() == []
    assert report == serial_report(monkeypatch, config=config, **CELLS)


def test_a_cell_that_kills_every_worker_fails_loudly(config,
                                                     monkeypatch):
    """A cell that kills every worker it runs in exhausts the sweep's
    retries and raises ``SweepError`` naming the cell; it never runs
    in this process, which survives, and no worker outlives it."""
    killing_fork_point(monkeypatch, lambda: True)
    with pytest.raises(SweepError, match="drop/halt"):
        run_campaign(config=config, **CELLS)
    assert multiprocessing.active_children() == []


def test_a_cell_error_propagates(config, monkeypatch):
    """An exception a cell raises in a worker reaches the caller, as it
    does when the cells run in this process."""
    def fork_point(*args, **kwargs):
        raise ReproError("cell failed")

    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
    monkeypatch.setattr(checkpoint, "fork_point", fork_point)
    with pytest.raises(ReproError, match="cell failed"):
        run_campaign(config=config, fork=False, **CELLS)
    assert multiprocessing.active_children() == []
