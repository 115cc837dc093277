"""Unit tests for the trace event bus (repro.obs.trace)."""

import json

from repro.obs import (
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    JsonlSink,
    ListSink,
    Tracer,
    current_tracer,
    install,
    installed,
    uninstall,
)
from repro.sim.core import Environment


def test_emit_builds_envelope_and_sequences():
    sink = ListSink()
    tracer = Tracer(sinks=[sink])
    tracer.emit("client.submit", 0.5, client="c", stream="S1", msg_id=1, size=8)
    tracer.emit("client.ack", 0.7, client="c", msg_id=1, latency=0.2)
    assert [e["seq"] for e in sink.events] == [0, 1]
    first = sink.events[0]
    assert first["ts"] == 0.5
    assert first["kind"] == "client.submit"
    assert first["cat"] == "client"
    assert first["msg_id"] == 1


def test_category_defaults_to_kind_prefix_and_cat_overrides():
    sink = ListSink()
    tracer = Tracer(sinks=[sink], categories=ALL_CATEGORIES)
    tracer.emit("net.partition", 1.0, cat="fault", side_a=["a"], side_b=["b"])
    assert sink.events[0]["cat"] == "fault"
    tracer.emit("net.heal", 2.0)
    assert sink.events[1]["cat"] == "net"


def test_noisy_categories_are_opt_in():
    sink = ListSink()
    tracer = Tracer(sinks=[sink])   # DEFAULT_CATEGORIES
    tracer.emit("net.send", 0.0, src="a", dst="b", type="X", size=1)
    tracer.emit("sim.process", 0.0)
    tracer.emit("actor.dispatch", 0.0, cat="dispatch", name="a", src="b", type="X")
    assert sink.events == []
    tracer.emit("replica.deliver", 0.0, replica="r", group="G", stream="S",
                position=0, msg_id=1)
    assert len(sink.events) == 1
    assert not tracer.wants_net and not tracer.wants_sim
    all_tracer = Tracer(categories=ALL_CATEGORIES)
    assert all_tracer.wants_net and all_tracer.wants_sim and all_tracer.wants_dispatch


def test_wants_matches_category_set():
    tracer = Tracer(categories={"coord", "net"})
    assert tracer.wants("coord")
    assert tracer.wants("net")
    assert not tracer.wants("merge")
    assert tracer.wants_net


def test_plain_callable_accepted_as_sink():
    seen = []
    tracer = Tracer(sinks=[seen.append])
    tracer.emit("client.timeout", 1.0, client="c", stream="S1", msg_id=3)
    assert seen[0]["kind"] == "client.timeout"


def test_dropped_events_do_not_consume_sequence_numbers():
    sink = ListSink()
    tracer = Tracer(sinks=[sink])
    tracer.emit("net.send", 0.0, src="a", dst="b", type="X", size=1)  # filtered
    tracer.emit("client.ack", 0.0, client="c", msg_id=1, latency=0.1)
    assert sink.events[0]["seq"] == 0
    assert tracer.emitted == 1


def test_jsonl_sink_roundtrip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    sink = JsonlSink(path)
    tracer = Tracer(sinks=[sink])
    tracer.emit("client.submit", 0.1, client="c", stream="S1", msg_id=7, size=32)
    tracer.close()
    assert sink.written == 1
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    assert lines == [{"ts": 0.1, "seq": 0, "kind": "client.submit",
                      "cat": "client", "client": "c", "stream": "S1",
                      "msg_id": 7, "size": 32}]


def test_install_slot_and_environment_adoption():
    assert current_tracer() is None
    tracer = Tracer()
    install(tracer)
    try:
        env = Environment()
        assert env.tracer is tracer
    finally:
        uninstall()
    assert current_tracer() is None
    # Environments built after uninstall see no tracer: the slot is
    # captured at construction, not consulted per event.
    assert Environment().tracer is None


def test_installed_context_manager_restores():
    tracer = Tracer()
    with installed(tracer) as active:
        assert active is tracer
        assert current_tracer() is tracer
    assert current_tracer() is None


def test_default_categories_exclude_firehoses():
    assert DEFAULT_CATEGORIES < ALL_CATEGORIES
    assert {"net", "sim", "dispatch"} == ALL_CATEGORIES - DEFAULT_CATEGORIES


def test_close_closes_sinks(tmp_path):
    sink = JsonlSink(str(tmp_path / "t.jsonl"))
    tracer = Tracer(sinks=[sink])
    tracer.close()
    assert sink._file.closed
    tracer.close()   # idempotent


def test_node_envelope_stamps_every_event():
    sink = ListSink()
    tracer = Tracer(sinks=[sink], node="n2", clock="wall")
    tracer.emit("client.submit", 1.0, client="c", stream="s1",
                msg_id=1, size=64)
    assert tracer.node == "n2" and tracer.clock == "wall"
    assert sink.events[0]["node"] == "n2"


def test_sim_tracer_events_unchanged_without_node():
    # node=None (the sim default) must leave events byte-identical to
    # the pre-node tracer: no "node" key at all.
    sink = ListSink()
    tracer = Tracer(sinks=[sink])
    tracer.emit("client.submit", 1.0, client="c", stream="s1",
                msg_id=1, size=64)
    assert tracer.node is None and tracer.clock == "virtual"
    assert "node" not in sink.events[0]


# -- fixed-shape kinds: one positional tuple in, the same event out ------------

# One set of values per declared field, and for coord.propose every
# combination of its two optional ids a token can have.
_SAMPLE = {
    "client": "client", "stream": "s1", "msg_id": 7, "size": 64,
    "coordinator": "s1/coord", "type": "AppValue", "request_id": 9,
    "dst": "s1/a1", "wait": 0.00025, "src": "client", "origin": "n1",
    "origin_ts": 1.25, "replica": "r1", "group": "g1", "position": 41,
}


def _fixed_cases():
    from repro.obs.schema import FIXED_SHAPE

    for kind, shape in FIXED_SHAPE.items():
        absent = [frozenset()]
        for name in sorted(shape.optional):
            absent += [gone | {name} for gone in absent]
        for gone in absent:
            yield kind, shape, tuple(
                None if name in gone else _SAMPLE[name]
                for name in shape.fields
            )


def test_fixed_shape_events_equal_what_the_keyword_path_builds():
    from repro.obs import FlightRecorder, validate_event

    cases = list(_fixed_cases())
    assert len(cases) == 4 + 4      # coord.propose: with/without each id
    for node in (None, "n2"):
        by_tuple, by_keyword = ListSink(), ListSink()
        recorder = FlightRecorder()
        fixed = Tracer(
            sinks=[recorder, by_tuple], categories=ALL_CATEGORIES, node=node
        )
        keyword = Tracer(
            sinks=[by_keyword], categories=ALL_CATEGORIES, node=node
        )
        for at, (kind, shape, values) in enumerate(cases):
            fixed.emit(kind, float(at), values)
            keyword.emit(kind, float(at), cat=shape.cat, **{
                name: value for name, value in zip(shape.fields, values)
                if value is not None
            })
        assert fixed.emitted == keyword.emitted == len(cases)
        # The ring kept the records; whoever needs a dict got one at once.
        assert all(entry.__class__ is tuple for entry in recorder._buffer)
        for materialised in (by_tuple.events, recorder.events()):
            # Key for key, in order: the JSONL line is the same bytes.
            assert [list(e.items()) for e in materialised] == [
                list(e.items()) for e in by_keyword.events
            ]
            assert [json.dumps(e) for e in materialised] == [
                json.dumps(e) for e in by_keyword.events
            ]
        for event in recorder.events():
            validate_event(event)
            assert event.get("node") == node


def test_fixed_shape_emit_honours_the_category_filter():
    import pytest

    sink = ListSink()
    tracer = Tracer(sinks=[sink], categories={"client"})
    tracer.emit("replica.deliver", 0.0, ("r1", "g1", "s1", 0, 1))
    tracer.emit("net.context", 0.0, ("a", "b", "n1", 1, 0.5))   # cat "meta"
    tracer.emit("client.submit", 1.0, ("client", "s1", 1, 64))
    assert [(e["seq"], e["kind"]) for e in sink.events] == [
        (0, "client.submit")
    ]
    # Filtered out is silent; a kind nobody declared a shape for is a bug.
    with pytest.raises(KeyError):
        tracer.emit("client.ack", 2.0, ("client", 1, 0.2))


# -- a delivered run: one record, read back as one event per value -----------


def _deliver_per_value(tracer, at, first, msg_ids):
    for position, msg_id in enumerate(msg_ids, first):
        tracer.emit("replica.deliver", at, ("r1", "g1", "s1", position, msg_id))


def test_a_run_record_materialises_to_exactly_the_per_value_events():
    from repro.obs.schema import materialise

    for node in (None, "n2"):
        per_value, run = ListSink(), ListSink()
        one = Tracer(sinks=[per_value], node=node)
        one.emit("client.submit", 0.5, ("client", "s1", 7, 64))
        _deliver_per_value(one, 1.25, 40, (7, 8, 9))
        one.emit("client.submit", 1.5, ("client", "s1", 10, 64))
        both = Tracer(sinks=[run], node=node)
        both.emit("client.submit", 0.5, ("client", "s1", 7, 64))
        both.emit("replica.deliver", 1.25, ("r1", "g1", "s1", 40, 7, 8, 9))
        both.emit("client.submit", 1.5, ("client", "s1", 10, 64))
        # Same dicts, key for key: consecutive seq, one ts, positions
        # counting up -- and the next event's seq follows the run's.
        assert [list(e.items()) for e in run.events] == [
            list(e.items()) for e in per_value.events
        ]
        assert [(e["seq"], e["ts"]) for e in run.events[1:4]] == [
            (1, 1.25), (2, 1.25), (3, 1.25)
        ]
        assert run.events[4]["seq"] == 4
        # Tracer.emitted counts events, not calls.
        assert one.emitted == both.emitted == 5
        assert materialise(
            (1.25, 1, "replica.deliver", "r1", "g1", "s1", 40, 7, 8, 9), node
        ) == per_value.events[1:4]


def test_the_flight_recorder_keeps_a_run_as_one_entry_and_reads_it_per_value(
    tmp_path,
):
    from repro.obs import FlightRecorder, validate_file

    recorder, reference = FlightRecorder(capacity=3), ListSink()
    tracer = Tracer(sinks=[recorder, reference], node="n1")
    tracer.emit("client.submit", 0.5, ("client", "s1", 8, 64))
    tracer.emit("replica.deliver", 1.0, ("r1", "g1", "s1", 0, 7, 8, 9))
    tracer.emit("replica.deliver", 1.0, ("r2", "g1", "s1", 0, 7, 8, 9))
    assert tracer.emitted == 7
    # The ring bound counts entries: three, of which two are runs.
    assert len(recorder) == recorder.recorded == 3 and recorder.dropped == 0
    assert recorder.events() == reference.events
    assert recorder.causal_history(8) == [
        e for e in reference.events if e["msg_id"] == 8
    ]
    path = str(tmp_path / "ring.jsonl")
    assert recorder.dump(path) == 7
    assert [json.loads(line) for line in open(path)] == reference.events
    assert validate_file(path) == 7
    # One more entry evicts the oldest whole: the submit, not a value.
    tracer.emit("client.submit", 2.0, ("client", "s1", 10, 64))
    assert recorder.dropped == 1
    assert recorder.events() == reference.events[1:]
