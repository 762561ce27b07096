"""Byte-identity pins for the observable event streams.

Refactors of the slow path, the tracer or the recorder must not change
what a traced run exports. These digests pin, on small ocean/fft
points, the sha256 of:

- the Chrome trace payload (``to_chrome_trace``) under MESI, MSI and
  MOESI, each with memory protection off and on, plus one run filtered
  to the ``mem`` category;
- one ``record_run(...).to_bytes()`` recording;
- one ``run_campaign(record_diff=True)`` report.

Payloads carry ``ENGINE_VERSION``; a deliberate engine or recording
format change re-derives the pins (print :func:`payload_digest` of the
new payloads) and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.config import KB, e6000_config
from repro.faults.campaign import run_campaign
from repro.obs import Tracer, to_chrome_trace
from repro.obs.recording import record_run
from repro.sim.sweep import SweepPoint, build_system
from repro.workloads.registry import generate

TRACE_DIGESTS = {
    ("MESI", False):
        "e44e25890b4a7af040cbf5a67f0ac6a61ca976a5fc59601caf190a74c5ac841b",
    ("MESI", True):
        "96845d1d8ef0852bd1a693ee2adc5794cc1276425dbc670c3538d95669c81cbb",
    ("MSI", False):
        "18a6b99dad77aa6c5032a5ac9d9e8dfc656f6914628abe79e6fc6eeeb0303c10",
    ("MSI", True):
        "d61f0bff432fe59bbc155d157906ea3240dad0caaa8ef7dc8a92078221413090",
    ("MOESI", False):
        "7e73fdf2df2dc411a4378b6fd19e04dc4c4098aa4a9b0cfc0d570f3b5714fd7a",
    ("MOESI", True):
        "cbe441fad0b521c659a08fa2912e79f941960e08b62da952f4517a39f06b7386",
}
MEM_ONLY_DIGEST = \
    "355c2fae0ab3a8f44a055dfe46a535a072d556e1bbbea84b17d722a290ca8ea8"
RECORDING_DIGEST = \
    "136c932f269d45a3a58e4f9f7c334063a3563c01c212e292b61f9de6b22a29ff"
CAMPAIGN_DIGEST = \
    "d22f20add0c15aac26bb2ef182ad1ea1bb5d7e2b5979c8ed5c9f5eea61718ad5"


def payload_digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def config(protocol: str, memprotect: bool):
    """2P, 64 KB L2 (miss-heavy), SENSS on; full memory protection
    when ``memprotect`` (hash fetches nest misses inside misses)."""
    machine = e6000_config(num_processors=2).with_l2_size(64 * KB)
    machine = machine.with_protocol(protocol)
    if memprotect:
        machine = machine.with_memprotect(encryption_enabled=True,
                                          integrity_enabled=True)
    return machine


def traced_payload(protocol: str, memprotect: bool, categories=None):
    system = build_system(config(protocol, memprotect))
    tracer = Tracer(capacity=None, categories=categories).attach(system)
    system.run(generate("ocean", 2, scale=0.05, seed=0))
    return to_chrome_trace(tracer)


@pytest.mark.parametrize("protocol,memprotect", sorted(TRACE_DIGESTS),
                         ids=[f"{protocol}-{'mp' if memprotect else 'plain'}"
                              for protocol, memprotect
                              in sorted(TRACE_DIGESTS)])
def test_chrome_trace_is_pinned(protocol, memprotect):
    payload = traced_payload(protocol, memprotect)
    assert payload_digest(payload) == TRACE_DIGESTS[protocol, memprotect]


def test_mem_category_trace_is_pinned():
    payload = traced_payload("MESI", True, categories={"mem"})
    assert payload_digest(payload) == MEM_ONLY_DIGEST


def test_recording_is_pinned():
    recording = record_run(SweepPoint("ocean", config("MESI", True),
                                      scale=0.05, seed=0))
    assert hashlib.sha256(recording.to_bytes()).hexdigest() == \
        RECORDING_DIGEST


def test_campaign_record_diff_report_is_pinned():
    report = run_campaign(policies=("halt", "rekey-replay"),
                          workload="fft", cpus=2, scale=0.02,
                          record_diff=True)
    assert payload_digest(report) == CAMPAIGN_DIGEST
