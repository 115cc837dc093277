"""Unit tests for the flight recorder ring buffer (repro.obs.recorder)."""

import json

import pytest

from repro.obs.recorder import FlightRecorder, charge
from repro.obs.schema import validate_file


def _event(seq, kind="net.heal", **fields):
    event = {"ts": float(seq), "seq": seq, "kind": kind,
             "cat": kind.partition(".")[0]}
    event.update(fields)
    return event


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(max_bytes=0)


def test_ring_bound_evicts_oldest():
    # The bound is in bytes: room for three of these events.
    recorder = FlightRecorder(max_bytes=3 * charge(_event(0)))
    for seq in range(5):
        recorder.record(_event(seq))
    assert len(recorder) == 3
    assert recorder.recorded == 5
    assert recorder.dropped == 2
    assert recorder.bytes == recorder.max_bytes
    assert [e["seq"] for e in recorder.events()] == [2, 3, 4]


def test_the_byte_bound_charges_what_an_entry_holds():
    # A record of 160 msg_ids costs what it holds: it pushes out the
    # small events it needs room for, and an entry larger than the
    # whole budget still stays, alone, as the newest.
    small = _event(0)
    run = (1.0, 1, "replica.deliver", "r1", "g1", "s1", 0) + tuple(
        range(1000, 1160)
    )
    assert charge(run) > 20 * charge(small)
    recorder = FlightRecorder(max_bytes=charge(run) + 2 * charge(small))
    for seq in range(30):
        recorder.record(_event(seq))
    assert len(recorder) == recorder.max_bytes // charge(small)
    recorder.record(run)
    assert len(recorder) == 3 and recorder.dropped == 30 - 2
    huge = FlightRecorder(max_bytes=charge(small))
    huge.record(small)
    huge.record(run)
    assert len(huge) == 1 and huge.bytes == charge(run)
    assert len(huge.events()) == 160


def test_clear_empties_buffer():
    recorder = FlightRecorder(max_bytes=3 * charge(_event(0)))
    recorder.record(_event(0))
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.bytes == 0
    assert recorder.recorded == 1


def test_causal_history_matches_all_id_fields():
    recorder = FlightRecorder()
    recorder.record(_event(0, "client.submit", client="c", stream="S1",
                           msg_id=7, size=8))
    recorder.record(_event(1, "coord.phase2", coordinator="S1/coord",
                           stream="S1", instance=0, msg_ids=[6, 7],
                           positions=[0, 1]))
    recorder.record(_event(2, "control.subscribe", client="c", group="G1",
                           stream="S2", via="S1", request_id=7))
    recorder.record(_event(3, "client.submit", client="c", stream="S1",
                           msg_id=8, size=8))
    history = recorder.causal_history(7)
    assert [e["seq"] for e in history] == [0, 1, 2]


def test_dump_writes_header_then_events(tmp_path):
    recorder = FlightRecorder()
    recorder.record(_event(0, "client.submit", client="c", stream="S1",
                           msg_id=7, size=8))
    recorder.record(_event(1, "replica.deliver", replica="G1/r1", group="G1",
                           stream="S1", position=0, msg_id=7))
    path = str(tmp_path / "dump.jsonl")
    written = recorder.dump(
        path, header={"ts": 2.5, "message": "boom", "msg_id": 7}
    )
    assert written == 2
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    assert lines[0]["kind"] == "meta.violation"
    assert lines[0]["seq"] == -1
    assert lines[0]["ts"] == 2.5
    assert lines[0]["message"] == "boom"
    assert lines[0]["msg_id"] == 7
    assert [l["seq"] for l in lines[1:]] == [0, 1]
    # The dump as a whole is schema-valid (what CI uploads on failure).
    assert validate_file(path) == 3


def test_dump_without_header(tmp_path):
    recorder = FlightRecorder()
    recorder.record(_event(0))
    path = str(tmp_path / "dump.jsonl")
    assert recorder.dump(path) == 1
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    assert [l["kind"] for l in lines] == ["net.heal"]
