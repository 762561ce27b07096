"""The Chrome trace export and its schema validator.

The acceptance bar: a full secured run exports to valid trace-event
JSON, and the validation covers every emitted event kind — bus
transactions, mask stalls, auth checkpoints, pad-cache events, plus
the miss/upgrade/hash/run spans around them.
"""

import copy
import json

import pytest

from repro.errors import TraceError
from repro.obs import (TRACE_EVENT_SCHEMA, TRACE_SCHEMA_VERSION, Tracer,
                       event_names, to_chrome_trace,
                       validate_chrome_trace)
from repro.obs.schema import validate_event
from repro.sim.sweep import ENGINE_VERSION, build_system

from .test_tracer import rich_config, rich_workload


@pytest.fixture(scope="module")
def payload():
    system = build_system(rich_config())
    tracer = Tracer(capacity=500_000).attach(system)
    system.run(rich_workload())
    return to_chrome_trace(tracer)


class TestExport:
    def test_full_run_validates(self, payload):
        count = validate_chrome_trace(payload)
        assert count == len(payload["traceEvents"])
        assert count > 1000

    def test_every_required_kind_is_emitted_and_validated(self, payload):
        names = set(event_names(payload))
        # The acceptance list: bus tx, mask stall, auth checkpoint,
        # pad-cache events ...
        assert {"BusRd", "BusRdX", "BusUpgr", "WB", "Auth00",
                "PadInv01", "PadReq10"} <= names
        assert "mask_stall" in names
        assert "auth_checkpoint" in names
        assert {"pad_cache_hit", "pad_cache_miss"} <= names
        # ... plus the structural spans around them.
        assert {"miss", "upgrade", "hash_verify", "hash_update",
                "execute"} <= names
        # Everything emitted is in the schema (validated above), and
        # nothing emitted falls outside it.
        assert names <= set(TRACE_EVENT_SCHEMA)

    def test_is_json_serializable(self, payload):
        text = json.dumps(payload)
        assert validate_chrome_trace(json.loads(text)) > 0

    def test_other_data_block(self, payload):
        other = payload["otherData"]
        assert other["schema_version"] == TRACE_SCHEMA_VERSION
        assert other["engine_version"] == ENGINE_VERSION
        assert other["workload"] == "fft"
        assert other["time_unit"] == "cpu_cycles_as_us"
        assert other["events_dropped"] == 0

    def test_track_metadata(self, payload):
        metadata = [event for event in payload["traceEvents"]
                    if event.get("ph") == "M"]
        process = [event for event in metadata
                   if event["name"] == "process_name"]
        threads = [event for event in metadata
                   if event["name"] == "thread_name"]
        assert process[0]["args"]["name"] == "senss-sim:fft"
        assert {event["args"]["name"] for event in threads} == \
            {"cpu0", "cpu1", "cpu2", "cpu3"}

    def test_spans_have_nonnegative_durations(self, payload):
        for event in payload["traceEvents"]:
            if event.get("ph") == "X":
                assert event["dur"] >= 0

    def test_miss_spans_name_their_supplier(self, payload):
        suppliers = {event["args"]["supplier"]
                     for event in payload["traceEvents"]
                     if event["name"] == "miss"}
        assert "memory" in suppliers
        assert any(name.startswith("cpu") for name in suppliers)

    def test_hash_outcomes_are_enumerated(self, payload):
        outcomes = {event["args"]["outcome"]
                    for event in payload["traceEvents"]
                    if event["name"] == "hash_verify"}
        assert outcomes <= {"root", "l2_hit", "fetch"}
        assert "fetch" in outcomes


def _first_named(payload, name):
    for event in payload["traceEvents"]:
        if event["name"] == name:
            return copy.deepcopy(event)
    raise AssertionError(f"no {name} event in payload")


class TestValidatorRejects:
    def test_non_object_payload(self):
        with pytest.raises(TraceError, match="JSON object"):
            validate_chrome_trace([])

    def test_missing_trace_events(self):
        with pytest.raises(TraceError, match="traceEvents"):
            validate_chrome_trace({"otherData": {"schema_version": 1}})

    def test_missing_schema_version(self, payload):
        broken = {"traceEvents": [], "otherData": {}}
        with pytest.raises(TraceError, match="schema_version"):
            validate_chrome_trace(broken)

    def test_unknown_event_name(self):
        with pytest.raises(TraceError, match="unknown event name"):
            validate_event(0, {"name": "bogus", "cat": "bus",
                               "ph": "X", "ts": 0, "dur": 0,
                               "pid": 0, "tid": 0, "args": {}})

    def test_wrong_category(self, payload):
        event = _first_named(payload, "miss")
        event["cat"] = "bus"
        with pytest.raises(TraceError, match="cat"):
            validate_event(0, event)

    def test_wrong_phase(self, payload):
        event = _first_named(payload, "auth_checkpoint")
        event["ph"] = "X"
        with pytest.raises(TraceError, match="ph"):
            validate_event(0, event)

    def test_missing_required_arg(self, payload):
        event = _first_named(payload, "BusRd")
        del event["args"]["address"]
        with pytest.raises(TraceError, match="address"):
            validate_event(0, event)

    @pytest.mark.parametrize("name", ["miss", "upgrade"])
    def test_span_without_invalidated(self, payload, name):
        event = _first_named(payload, name)
        del event["args"]["invalidated"]
        with pytest.raises(TraceError, match="invalidated"):
            validate_event(0, event)

    def test_wrong_arg_type(self, payload):
        event = _first_named(payload, "BusRd")
        event["args"]["address"] = "0x40"
        with pytest.raises(TraceError, match="must be an int"):
            validate_event(0, event)

    def test_bool_is_not_an_int(self, payload):
        event = _first_named(payload, "BusRd")
        event["args"]["address"] = True
        with pytest.raises(TraceError, match="must be an int"):
            validate_event(0, event)

    def test_negative_duration(self, payload):
        event = _first_named(payload, "miss")
        event["dur"] = -1
        with pytest.raises(TraceError, match="dur"):
            validate_event(0, event)

    def test_instant_needs_scope(self, payload):
        event = _first_named(payload, "auth_checkpoint")
        del event["s"]
        with pytest.raises(TraceError, match="scope"):
            validate_event(0, event)

    def test_out_of_enum_outcome(self, payload):
        event = _first_named(payload, "hash_verify")
        event["args"]["outcome"] = "sideways"
        with pytest.raises(TraceError, match="one of"):
            validate_event(0, event)

    def test_metadata_needs_known_name(self):
        with pytest.raises(TraceError, match="metadata"):
            validate_event(0, {"name": "surprise", "ph": "M",
                               "pid": 0, "tid": 0,
                               "args": {"name": "x"}})

    def test_error_names_the_offending_index(self, payload):
        event = _first_named(payload, "BusRd")
        del event["args"]["address"]
        broken = {"traceEvents": [event],
                  "otherData": {"schema_version": 1}}
        with pytest.raises(TraceError, match=r"\[0\]"):
            validate_chrome_trace(broken)
