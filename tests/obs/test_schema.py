"""Unit tests for the trace event schema (repro.obs.schema)."""

import pytest

from repro.obs import EVENT_SCHEMA, SchemaError, validate_event, validate_file


def _event(kind="client.ack", **fields):
    event = {"ts": 1.0, "seq": 0, "kind": kind, "cat": kind.partition(".")[0]}
    event.update(fields)
    return event


def test_valid_event_passes():
    validate_event(_event(client="c", msg_id=1, latency=0.2))


def test_every_kind_has_a_schema_entry():
    # The catalogue covers all layers: kernel, wire, actors, client,
    # control plane, coordinator, learner, merge, replica, faults.
    prefixes = {kind.partition(".")[0] for kind in EVENT_SCHEMA}
    assert {"sim", "net", "actor", "client", "control", "coord",
            "learner", "merge", "replica", "fault", "invariant",
            "meta"} <= prefixes


def test_missing_envelope_field_rejected():
    event = _event(client="c", msg_id=1, latency=0.2)
    del event["seq"]
    with pytest.raises(SchemaError, match="envelope"):
        validate_event(event)


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError, match="unknown event kind"):
        validate_event(_event(kind="coord.frobnicate"))


def test_audit_and_alert_kinds_are_registered():
    # The online certifier / watchdog plane writes its alert log as
    # ordinary trace events; validate-trace must accept them...
    prefixes = {kind.partition(".")[0] for kind in EVENT_SCHEMA}
    assert {"audit", "alert"} <= prefixes
    validate_event(_event(kind="audit.check", events=10, violations=0))
    validate_event(_event(kind="audit.violation",
                          property="stream-agreement", message="boom"))
    validate_event(_event(kind="alert.raise", detector="quorum_stall",
                          severity="critical", message="stuck"))
    validate_event(_event(kind="alert.clear", detector="quorum_stall"))


def test_audit_kinds_enforce_required_fields():
    # ...while still failing on records missing their required fields
    # (the pin for the watch plane's output discipline).
    with pytest.raises(SchemaError, match="property"):
        validate_event(_event(kind="audit.violation", message="boom"))
    with pytest.raises(SchemaError, match="severity"):
        validate_event(_event(kind="alert.raise", detector="d",
                              message="m"))


def test_missing_required_field_rejected():
    with pytest.raises(SchemaError, match="msg_id"):
        validate_event(_event(client="c", latency=0.2))


def test_non_numeric_ts_rejected():
    event = _event(client="c", msg_id=1, latency=0.2)
    event["ts"] = "soon"
    with pytest.raises(SchemaError, match="ts"):
        validate_event(event)


def test_validate_file_counts_events():
    lines = [
        '{"ts":0.0,"seq":0,"kind":"client.submit","cat":"client",'
        '"client":"c","stream":"S1","msg_id":1,"size":8}',
        '{"ts":0.1,"seq":1,"kind":"client.ack","cat":"client",'
        '"client":"c","msg_id":1,"latency":0.1}',
        "",   # blank lines are skipped
    ]
    assert validate_file(lines) == 2


def test_validate_file_rejects_seq_regression():
    lines = [
        '{"ts":0.0,"seq":5,"kind":"net.heal","cat":"net"}',
        '{"ts":0.1,"seq":5,"kind":"net.heal","cat":"net"}',
    ]
    with pytest.raises(SchemaError, match="monotonically"):
        validate_file(lines)


def test_validate_file_accepts_flight_dump_header():
    # A flight-recorder dump leads with a seq=-1 meta.violation line;
    # the monotonicity check must start from it, not reject it.
    lines = [
        '{"ts":1.0,"seq":-1,"kind":"meta.violation","cat":"meta",'
        '"message":"boom"}',
        '{"ts":0.0,"seq":0,"kind":"net.heal","cat":"net"}',
        '{"ts":0.5,"seq":3,"kind":"net.heal","cat":"net"}',
    ]
    assert validate_file(lines) == 3


def test_validate_file_rejects_bad_json_with_line_number():
    with pytest.raises(SchemaError, match="line 1"):
        validate_file(["{nope"])


def test_validate_file_rejects_empty_trace():
    with pytest.raises(SchemaError, match="no events"):
        validate_file([])


def test_validate_file_reads_paths(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"ts":0.0,"seq":0,"kind":"fault.inject","cat":"fault",'
        '"action":"crash r1"}\n'
    )
    assert validate_file(str(path)) == 1


def test_fixed_shape_declarations_match_the_schema():
    # A fixed-shape kind is declared twice: its required fields in
    # EVENT_SCHEMA, its full emit order in FIXED_SHAPE.  The second must
    # start with the first, only fields beyond them may be optional, and
    # the category must be one a tracer can be asked for.
    from repro.obs import ALL_CATEGORIES
    from repro.obs.schema import FIXED_SHAPE, materialise

    assert set(FIXED_SHAPE) == {
        "client.submit", "coord.propose", "transport.queue_wait",
        "net.context", "replica.deliver",
    }
    for kind, shape in FIXED_SHAPE.items():
        required = EVENT_SCHEMA[kind]
        assert shape.fields[:len(required)] == required, kind
        assert len(set(shape.fields)) == len(shape.fields), kind
        assert shape.optional <= set(shape.fields[len(required):]), kind
        assert shape.cat in ALL_CATEGORIES, kind
        # All optional fields absent is still a valid event.
        for event in materialise((0.0, 0, kind) + tuple(
            None if name in shape.optional else 1 for name in shape.fields
        )):
            validate_event(event)
    assert FIXED_SHAPE["net.context"].cat == "meta"
