"""Online safety certifier unit tests (repro.obs.audit).

The certifier consumes the same event stream the post-hoc tools read,
but incrementally: these tests exercise the incremental reader against
every torn-input artifact a live run produces (appends mid-read, a
truncated final record, files that appear late), and the certifier
against clean histories, each violation class, clock-offset alignment,
restart incarnations, and the bounded-memory compaction path.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import audit
from repro.obs.audit import SafetyCertifier
from repro.obs.read import IncrementalTraceReader, TraceDirectorySource


def _write(path, events, mode="w"):
    with open(path, mode, encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def _deliver(node, replica, stream, position, msg_id, ts=None,
             group="g1"):
    return {
        "ts": ts if ts is not None else 0.1 * position, "seq": position,
        "kind": "replica.deliver", "cat": "replica", "node": node,
        "replica": replica, "group": group, "stream": stream,
        "position": position, "msg_id": msg_id,
    }


def _clock(node, offset, rtt=0.001):
    return {"ts": 0.0, "seq": 0, "kind": "meta.clock", "cat": "meta",
            "node": node, "ref": "n1", "offset": offset, "rtt": rtt}


# -- IncrementalTraceReader --------------------------------------------

def test_reader_returns_only_new_events_per_poll(tmp_path):
    path = str(tmp_path / "n1.trace.jsonl")
    _write(path, [_deliver("n1", "r1", "s1", i, i) for i in (1, 2)])
    reader = IncrementalTraceReader(path)
    assert [e["position"] for e in reader.poll()] == [1, 2]
    assert reader.poll() == []
    _write(path, [_deliver("n1", "r1", "s1", 3, 3)], mode="a")
    assert [e["position"] for e in reader.poll()] == [3]
    assert reader.events_read == 3


def test_reader_missing_file_then_appearing(tmp_path):
    path = str(tmp_path / "late.trace.jsonl")
    reader = IncrementalTraceReader(path)
    assert reader.poll() == []
    _write(path, [_deliver("n1", "r1", "s1", 1, 1)])
    assert len(reader.poll()) == 1


def test_reader_buffers_torn_tail_until_completed(tmp_path):
    path = str(tmp_path / "n1.trace.jsonl")
    line = json.dumps(_deliver("n1", "r1", "s1", 1, 1)) + "\n"
    head, tail = line[:20], line[20:]
    with open(path, "w") as fh:
        fh.write(head)
    reader = IncrementalTraceReader(path)
    assert reader.poll() == []          # half a record is not an event
    with open(path, "a") as fh:
        fh.write(tail)
    events = reader.poll()
    assert len(events) == 1 and events[0]["position"] == 1
    assert reader.malformed == 0


def test_reader_torn_tail_never_completing_is_held_forever(tmp_path):
    # kill -9 leaves the file ending mid-record; the fragment must
    # neither crash the reader nor be misparsed as an event.
    path = str(tmp_path / "n1.trace.jsonl")
    _write(path, [_deliver("n1", "r1", "s1", 1, 1)])
    with open(path, "a") as fh:
        fh.write('{"ts": 0.9, "kind": "replica.del')
    reader = IncrementalTraceReader(path)
    assert len(reader.poll()) == 1
    for _ in range(3):
        assert reader.poll() == []
    assert reader.malformed == 0        # still buffered, not condemned


def test_reader_counts_malformed_lines_and_keeps_going(tmp_path):
    path = str(tmp_path / "n1.trace.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(_deliver("n1", "r1", "s1", 1, 1)) + "\n")
        fh.write("not json at all\n")
        fh.write("42\n")                # parses, but is not an event dict
        fh.write(json.dumps(_deliver("n1", "r1", "s1", 2, 2)) + "\n")
    reader = IncrementalTraceReader(path)
    assert [e["position"] for e in reader.poll()] == [1, 2]
    assert reader.malformed == 2


def test_reader_resets_on_truncation(tmp_path):
    path = str(tmp_path / "n1.trace.jsonl")
    _write(path, [_deliver("n1", "r1", "s1", i, i) for i in (1, 2, 3)])
    reader = IncrementalTraceReader(path)
    assert len(reader.poll()) == 3
    _write(path, [_deliver("n1", "r1", "s1", 1, 1)])   # recreated, shorter
    events = reader.poll()
    assert [e["position"] for e in events] == [1]
    assert reader.resets == 1


# -- TraceDirectorySource ----------------------------------------------

def test_directory_source_discovers_new_files_between_polls(tmp_path):
    _write(str(tmp_path / "n1.trace.jsonl"),
           [_deliver("n1", "r1", "s1", 1, 1)])
    source = TraceDirectorySource(directory=str(tmp_path))
    assert len(source.poll()) == 1
    # A restarted worker's fresh incarnation trace appears mid-run.
    _write(str(tmp_path / "n2-r1.trace.jsonl"),
           [_deliver("n2-r1", "r2", "s1", 1, 1)])
    assert len(source.poll()) == 1
    assert source.events_read == 2


def test_directory_source_skips_merged_and_non_trace_files(tmp_path):
    _write(str(tmp_path / "n1.trace.jsonl"),
           [_deliver("n1", "r1", "s1", 1, 1)])
    _write(str(tmp_path / "merged.trace.jsonl"),
           [_deliver("n1", "r1", "s1", 1, 1)])
    _write(str(tmp_path / "alerts.jsonl"),
           [_deliver("n1", "r1", "s1", 1, 1)])
    source = TraceDirectorySource(directory=str(tmp_path))
    assert len(source.poll()) == 1


# -- SafetyCertifier: clean histories ----------------------------------

def test_clean_two_replica_history_certifies(tmp_path):
    certifier = SafetyCertifier()
    for replica, node in (("r1", "n1"), ("r2", "n2")):
        for position in (1, 2, 3):
            violations = certifier.observe(
                _deliver(node, replica, "s1", position, 100 + position)
            )
            assert violations == []
    assert certifier.check_acyclic() == []
    summary = certifier.summary()
    assert summary["ok"] and summary["delivered"] == 6
    assert summary["watermarks"]["s1"] == {"low": 3, "high": 3}


def test_interleaved_streams_prefix_agreement_ok():
    # Both observers deliver the same interleaving of two streams.
    certifier = SafetyCertifier()
    order = [("s1", 1, 10), ("s2", 1, 20), ("s1", 2, 11), ("s2", 2, 21)]
    for node, replica in (("n1", "r1"), ("n2", "r2")):
        for stream, position, msg in order:
            assert certifier.observe(
                _deliver(node, replica, stream, position, msg)
            ) == []
    assert certifier.check_acyclic() == []


def test_lagging_replica_is_a_prefix_not_a_violation():
    certifier = SafetyCertifier()
    for position in (1, 2, 3):
        certifier.observe(_deliver("n1", "r1", "s1", position, position))
    certifier.observe(_deliver("n2", "r2", "s1", 1, 1))   # behind, fine
    assert certifier.violations == []


# -- SafetyCertifier: violations ---------------------------------------

def test_stream_agreement_violation_across_nodes():
    certifier = SafetyCertifier()
    certifier.observe(_deliver("n1", "r1", "s1", 1, 10))
    fresh = certifier.observe(_deliver("n2", "r2", "s1", 1, 99))
    assert [v.property for v in fresh] == [
        "stream-agreement", "prefix-agreement"
    ]
    assert not certifier.summary()["ok"]


def test_duplicate_delivery_violation():
    certifier = SafetyCertifier()
    certifier.observe(_deliver("n1", "r1", "s1", 1, 10))
    certifier.observe(_deliver("n1", "r1", "s1", 2, 11))
    fresh = certifier.observe(_deliver("n1", "r1", "s1", 2, 11))
    assert [v.property for v in fresh] == ["duplicate-delivery"]


def test_restart_incarnation_replay_is_not_a_duplicate():
    # A kill -9'd worker restarts with a fresh trace node id and
    # replays deliveries from position 1: a new observer agreeing with
    # the canon, not a duplicate.
    certifier = SafetyCertifier()
    for position in (1, 2):
        certifier.observe(_deliver("n3", "r3", "s1", position, position))
    for position in (1, 2):
        assert certifier.observe(
            _deliver("n3-r1", "r3", "s1", position, position)
        ) == []
    assert certifier.violations == []


def test_prefix_agreement_violation_on_reordered_deliveries():
    certifier = SafetyCertifier()
    order = [("s1", 1, 10), ("s2", 1, 20)]
    for stream, position, msg in order:
        certifier.observe(_deliver("n1", "r1", stream, position, msg))
    for stream, position, msg in reversed(order):
        certifier.observe(_deliver("n2", "r2", stream, position, msg))
    assert "prefix-agreement" in {v.property for v in certifier.violations}


def test_acyclic_order_violation_across_groups():
    # Group A orders m1 before m2; group B orders m2 before m1.
    certifier = SafetyCertifier()
    certifier.observe(_deliver("n1", "r1", "s1", 1, "m1", group="gA"))
    certifier.observe(_deliver("n1", "r1", "s2", 1, "m2", group="gA"))
    certifier.observe(_deliver("n2", "r2", "s2", 1, "m2", group="gB"))
    certifier.observe(_deliver("n2", "r2", "s1", 1, "m1", group="gB"))
    fresh = certifier.check_acyclic()
    assert [v.property for v in fresh] == ["acyclic-order"]


def test_merge_point_mismatch_violation():
    certifier = SafetyCertifier()
    base = {"ts": 1.0, "seq": 1, "cat": "merge", "stream": "s2",
            "request_id": 7}
    certifier.observe({**base, "kind": "merge.subscribe.commit",
                       "node": "n1", "replica": "r1", "merge_point": 12})
    fresh = certifier.observe({**base, "kind": "merge.subscribe.commit",
                               "node": "n2", "replica": "r2",
                               "merge_point": 13})
    assert [v.property for v in fresh] == ["merge-point"]


def test_worker_reported_invariant_violations_are_collected():
    certifier = SafetyCertifier()
    certifier.observe({"ts": 1.0, "seq": 1, "kind": "invariant.violation",
                       "cat": "invariant", "node": "n1",
                       "message": "relative delivery order violated"})
    assert certifier.worker_violations == [
        "n1: relative delivery order violated"
    ]


# -- clock alignment ---------------------------------------------------

def test_clock_offsets_align_staleness_clock():
    certifier = SafetyCertifier()
    certifier.observe(_clock("n2", 10.0))
    # n2's local ts 11.0 is reference time 1.0, not 11.0.
    certifier.observe(_deliver("n2", "r2", "s1", 1, 1, ts=11.0))
    assert certifier.now == pytest.approx(1.0)
    certifier.observe(_deliver("n1", "r1", "s1", 1, 1, ts=2.0))
    assert certifier.now == pytest.approx(2.0)


def test_watch_sample_exposes_pending_age_and_reconfigs():
    certifier = SafetyCertifier()
    certifier.observe({"ts": 1.0, "seq": 1, "kind": "coord.propose",
                       "cat": "coord", "node": "n1", "stream": "s1",
                       "type": "ValueToken"})
    certifier.observe(_deliver("n1", "r1", "s1", 1, 1, ts=4.0))
    sample = certifier.watch_sample()
    assert sample["streams"]["s1"]["pending"] == 1
    assert sample["streams"]["s1"]["pending_age"] == pytest.approx(3.0)
    # The decide zeroes the pending accounting.
    certifier.observe({"ts": 4.5, "seq": 2, "kind": "coord.decide",
                       "cat": "coord", "node": "n1", "stream": "s1",
                       "instance": 1, "positions": 1})
    sample = certifier.watch_sample()
    assert sample["streams"]["s1"]["pending"] == 0
    assert sample["streams"]["s1"]["pending_age"] is None


def test_never_committing_reconfig_surfaces_as_pending_age():
    certifier = SafetyCertifier()
    certifier.observe({"ts": 1.0, "seq": 1, "kind": "control.subscribe",
                       "cat": "control", "node": "n1", "stream": "s2",
                       "request_id": 9})
    certifier.observe(_deliver("n1", "r1", "s1", 1, 1, ts=8.0))
    sample = certifier.watch_sample()
    assert sample["pending_reconfigs"]["9"] == pytest.approx(7.0)
    # ...and it is an alert-plane concern, never a safety violation.
    assert certifier.violations == []


def test_unsubscribed_replica_is_excluded_from_low_watermark():
    certifier = SafetyCertifier()
    for node, replica in (("n1", "r1"), ("n2", "r2")):
        certifier.observe(_deliver(node, replica, "s1", 1, 1))
    certifier.observe({"ts": 0.2, "seq": 3, "kind": "merge.unsubscribe",
                       "cat": "merge", "node": "n2", "replica": "r2",
                       "stream": "s1", "request_id": 4, "merge_point": 1})
    certifier.observe(_deliver("n1", "r1", "s1", 2, 2))
    assert certifier.watermarks()["s1"] == {"low": 2, "high": 2}


# -- compaction --------------------------------------------------------

def test_compaction_bounds_memory_and_keeps_certifying(monkeypatch):
    monkeypatch.setattr(audit, "_COMPACT_LIMIT", 50)
    certifier = SafetyCertifier()
    for position in range(1, 301):
        certifier.observe(_deliver("n1", "r1", "s1", position, position))
    spec = certifier.spec
    assert len(spec.streams["s1"].values) <= 75        # 1.5 x the limit
    assert len(spec.groups["g1"].canon) <= 75
    assert certifier.violations == []
    # Old positions are no longer value-checked (documented tradeoff)...
    assert certifier.observe(_deliver("n2", "r2", "s1", 1, 999)) == []
    # ...but fresh positions still are.
    certifier.observe(_deliver("n3", "r3", "s1", 300, 300))
    fresh = certifier.observe(_deliver("n3", "r3", "s1", 301, 301))
    assert fresh == [] and spec.streams["s1"].floor > 1
    # Per-observer monotonicity is still enforced below the floor.
    dup = certifier.observe(_deliver("n2", "r2", "s1", 1, 1))
    assert [v.property for v in dup] == ["duplicate-delivery"]
