"""Clock-aligned merging of per-node traces (repro.obs.merge).

Synthetic two-node traces with a known skew: alignment must shift the
timestamps back into the reference domain, causal repair must clamp
residual inversions (a decide must not precede its submit), node-local
order must survive, and the merged file must be consumable by the
existing tooling (schema validator, LifecycleIndex).
"""

from __future__ import annotations

import pytest

from repro.obs.merge import (
    cross_node_messages,
    merge_events,
    merge_files,
    read_trace,
    trace_offsets,
    write_trace,
)
from repro.obs.schema import validate_file
from repro.obs.spans import LifecycleIndex


def _event(kind, ts, seq, node, **fields):
    event = {"ts": ts, "seq": seq, "kind": kind, "cat": kind.split(".")[0],
             "node": node}
    event.update(fields)
    return event


def _lifecycle_traces(skew=2.0):
    """msg 7 submitted on n1, decided on n2 (clock ahead by ``skew``),
    delivered back on n1."""
    n1 = [
        _event("meta.node", 0.0, 0, "n1", clock="wall"),
        _event("meta.clock", 0.0, 1, "n1", ref="n1", offset=0.0),
        _event("client.submit", 10.0, 2, "n1",
               client="client", stream="s2", msg_id=7, size=64),
        _event("replica.deliver", 10.5, 3, "n1",
               replica="r1", group="g1", stream="s2", position=0, msg_id=7),
    ]
    n2 = [
        _event("meta.node", 0.0, 0, "n2", clock="wall"),
        _event("meta.clock", 5.0, 1, "n2", ref="n1", offset=skew),
        _event("coord.phase2", 10.1 + skew, 2, "n2",
               coordinator="s2/coord", stream="s2", instance=0,
               msg_ids=[7], positions=[0]),
        _event("coord.decide", 10.2 + skew, 3, "n2",
               coordinator="s2/coord", stream="s2", instance=0,
               msg_ids=[7], positions=[0]),
    ]
    return {"n1": n1, "n2": n2}


def test_trace_offsets_reads_meta_clock_last_wins():
    traces = _lifecycle_traces(skew=2.0)
    traces["n2"].append(
        _event("meta.clock", 9.0, 4, "n2", ref="n1", offset=2.5)
    )
    offsets = trace_offsets(traces)
    assert offsets == {"n1": 0.0, "n2": 2.5}


def test_offsets_align_cross_node_timestamps():
    merged = merge_events(_lifecycle_traces(skew=2.0))
    by_kind = {e["kind"]: e for e in merged}
    # The decide happened on n2's clock at 12.2 but lands between the
    # submit (10.0) and the deliver (10.5) once aligned.
    assert by_kind["client.submit"]["ts"] == pytest.approx(10.0)
    assert by_kind["coord.decide"]["ts"] == pytest.approx(10.2)
    assert by_kind["replica.deliver"]["ts"] == pytest.approx(10.5)
    kinds = [e["kind"] for e in merged if e["kind"] != "meta.merge"]
    assert kinds.index("client.submit") < kinds.index("coord.decide")
    assert kinds.index("coord.decide") < kinds.index("replica.deliver")


def test_causal_repair_clamps_inverted_stages():
    # Overstated offset: the decide would align to 9.7, *before* its
    # submit at 10.0.  The per-message stage floor must clamp it up.
    merged = merge_events(_lifecycle_traces(skew=2.0),
                          offsets={"n1": 0.0, "n2": 4.5})
    by_kind = {e["kind"]: e for e in merged}
    assert by_kind["coord.decide"]["ts"] >= by_kind["client.submit"]["ts"]
    kinds = [e["kind"] for e in merged]
    assert kinds.index("client.submit") < kinds.index("coord.decide")


def test_node_local_order_survives_alignment():
    merged = merge_events(_lifecycle_traces(skew=2.0))
    for node in ("n1", "n2"):
        node_seqs = [e["node_seq"] for e in merged
                     if e.get("node") == node and e.get("node_seq") is not None]
        assert node_seqs == sorted(node_seqs)
    # Timestamps are globally non-decreasing after repair.
    timestamps = [e["ts"] for e in merged]
    assert timestamps == sorted(timestamps)


def test_merge_header_and_global_renumbering():
    merged = merge_events(_lifecycle_traces(skew=2.0))
    assert merged[0]["kind"] == "meta.merge"
    assert merged[0]["nodes"] == ["n1", "n2"]
    assert merged[0]["offsets"]["n2"] == pytest.approx(2.0)
    assert [e["seq"] for e in merged] == list(range(len(merged)))


def test_merged_file_passes_schema_validation(tmp_path):
    traces = _lifecycle_traces(skew=2.0)
    paths = []
    for node, events in traces.items():
        path = str(tmp_path / f"{node}.trace.jsonl")
        write_trace(events, path)
        paths.append(path)
    out = str(tmp_path / "merged.jsonl")
    merged = merge_files(paths, out=out)
    assert validate_file(out) == len(merged)
    assert read_trace(out) == merged


def test_lifecycle_index_consumes_merged_timeline():
    merged = merge_events(_lifecycle_traces(skew=2.0))
    index = LifecycleIndex().consume_all(merged)
    lifecycle = index.messages[7]
    assert lifecycle.submitted_at == pytest.approx(10.0)
    assert lifecycle.decided_at == pytest.approx(10.2)
    assert lifecycle.delivered_at["r1"] == pytest.approx(10.5)
    assert lifecycle.decided_at >= lifecycle.submitted_at


def test_cross_node_messages_requires_two_nodes():
    merged = merge_events(_lifecycle_traces(skew=2.0))
    spanning = cross_node_messages(merged)
    assert spanning == {7: {"n1", "n2"}}
    # A single-node lifecycle does not count as spanning.
    solo = [
        _event("client.submit", 1.0, 0, "n1",
               client="client", stream="s1", msg_id=9, size=64),
        _event("replica.deliver", 1.2, 1, "n1",
               replica="r1", group="g1", stream="s1", position=0, msg_id=9),
    ]
    assert cross_node_messages(solo) == {}


def test_merge_without_recorded_offsets_defaults_to_zero():
    traces = {
        "a": [_event("client.submit", 3.0, 0, "a",
                     client="client", stream="s1", msg_id=1, size=64)],
        "b": [_event("replica.deliver", 2.0, 0, "b",
                     replica="r1", group="g1", stream="s1", position=0,
                     msg_id=2)],
    }
    merged = merge_events(traces)
    assert merged[0]["kind"] == "meta.merge"
    assert [e["ts"] for e in merged[1:]] == [2.0, 3.0]


def test_a_replayed_learn_raises_no_other_nodes_earlier_delivery():
    # n1 learns and delivers msg 1 by 1.046; a restarted incarnation
    # n3-r1 re-learns it at 4.173.  The learn stage's earliest event
    # floors the delivery, so n1's deliveries keep their times.
    n1 = [
        _event("learner.learned", 1.0, 0, "n1", replica="r1", stream="s1",
               instance=0, msg_ids=[1], positions=[0]),
        _event("replica.deliver", 1.046, 1, "n1", replica="r1", group="g",
               stream="s1", position=0, msg_id=1),
        _event("replica.deliver", 2.0, 2, "n1", replica="r1", group="g",
               stream="s1", position=1, msg_id=2),
    ]
    n3 = [
        _event("learner.learned", 4.173, 0, "n3-r1", replica="r3",
               stream="s1", instance=0, msg_ids=[1], positions=[0]),
    ]
    merged = merge_events({"n1": n1, "n3-r1": n3}, offsets={})
    delivered = [e["ts"] for e in merged if e["kind"] == "replica.deliver"]
    assert delivered == [1.046, 2.0]
