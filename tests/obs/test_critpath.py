"""Unit tests for critical-path extraction (repro.obs.critpath).

Hand-written event sequences exercise the five-segment decomposition,
the straggler / head-of-line / transport attributions, clock-skewed
merged traces (no negative segments), and the budget report round-trip.
"""

import pytest

from repro.obs.spans import LifecycleIndex
from repro.obs.critpath import (
    BUDGET_FORMAT,
    SEGMENT_NAMES,
    budget_lines,
    diff_budgets,
    extract_critical_paths,
    latency_budget,
    load_budget,
    write_budget,
)
from repro.obs.schema import validate_event


def _seq(events):
    """Attach envelope fields to bare (ts, kind, fields) triples."""
    out = []
    for seq, (ts, kind, fields) in enumerate(events):
        event = {"ts": ts, "seq": seq, "kind": kind,
                 "cat": kind.partition(".")[0]}
        event.update(fields)
        out.append(event)
    return out


def _lifecycle(msg_id, base, *, closed_by="S1/a2", stream="S1",
               deliver_offset=1.0):
    """One complete lifecycle starting at ``base`` with 0.1s stages."""
    return [
        (base + 0.0, "client.submit",
         dict(client="c", stream=stream, msg_id=msg_id, size=32)),
        (base + 0.1, "coord.propose",
         dict(coordinator=f"{stream}/coord", stream=stream,
              type="AppValue", msg_id=msg_id)),
        (base + 0.3, "coord.phase2",
         dict(coordinator=f"{stream}/coord", stream=stream,
              instance=msg_id, msg_ids=[msg_id], positions=[msg_id])),
        (base + 0.6, "coord.decide",
         dict(coordinator=f"{stream}/coord", stream=stream,
              instance=msg_id, positions=[msg_id], closed_by=closed_by)),
        (base + 0.8, "learner.learned",
         dict(replica="G1/r1", stream=stream, instance=msg_id,
              msg_ids=[msg_id], positions=[msg_id])),
        (base + deliver_offset, "replica.deliver",
         dict(replica="G1/r1", group="G1", stream=stream,
              position=msg_id, msg_id=msg_id)),
    ]


def test_segments_telescope_and_attribute_fully():
    index = LifecycleIndex().consume_all(_seq(_lifecycle(1, 0.0)))
    (path,) = extract_critical_paths(index)
    assert path.msg_id == 1
    assert tuple(path.segments) == SEGMENT_NAMES
    assert path.total == pytest.approx(1.0)
    assert sum(path.segments.values()) == pytest.approx(path.total)
    assert path.segments["submit->propose"] == pytest.approx(0.1)
    assert path.segments["batch_wait"] == pytest.approx(0.2)
    assert path.segments["quorum_wait"] == pytest.approx(0.3)
    assert path.segments["dissemination"] == pytest.approx(0.2)
    assert path.segments["merge_wait"] == pytest.approx(0.2)
    assert path.closed_by == "S1/a2"


def test_budget_attributes_everything_on_complete_lifecycles():
    events = _seq(_lifecycle(1, 0.0) + _lifecycle(2, 5.0, closed_by="S1/a3"))
    budget = latency_budget(LifecycleIndex().consume_all(events))
    assert budget["format"] == BUDGET_FORMAT
    assert budget["messages"] == {
        "observed": 2, "delivered": 2, "complete": 2,
    }
    assert budget["coverage"] == 1.0
    assert budget["attributed_share"] == pytest.approx(1.0)
    assert [seg["name"] for seg in budget["segments"]] == list(SEGMENT_NAMES)
    assert sum(seg["share"] for seg in budget["segments"]) \
        == pytest.approx(1.0, abs=1e-4)
    stragglers = {s["acceptor"]: s["closed"] for s in budget["stragglers"]}
    assert stragglers == {"S1/a2": 1, "S1/a3": 1}


def test_partial_lifecycles_excluded_but_counted():
    # msg 2 is submitted and never delivered: no path, but it shows up
    # in the observed count and leaves coverage at 100% of *delivered*.
    events = _seq(_lifecycle(1, 0.0) + [
        (9.0, "client.submit", dict(client="c", stream="S1", msg_id=2,
                                    size=32)),
    ])
    index = LifecycleIndex().consume_all(events)
    assert len(extract_critical_paths(index)) == 1
    budget = latency_budget(index)
    assert budget["messages"]["observed"] == 2
    assert budget["messages"]["complete"] == 1
    assert budget["coverage"] == 1.0


def test_empty_index_yields_empty_budget():
    budget = latency_budget(LifecycleIndex())
    assert budget["messages"]["complete"] == 0
    assert budget["segments"] == []
    assert budget["transport_ms"] is None
    lines = budget_lines(budget)
    assert any("nothing to attribute" in line for line in lines)


def test_head_of_line_blamed_on_overlapping_episode():
    # The delivering replica was blocked on S2 for [0.85, 1.0] -- that
    # episode overlaps msg 1's merge window [0.8, 1.0] the longest.
    events = _seq(_lifecycle(1, 0.0) + [
        (1.0, "merge.head_of_line",
         dict(replica="G1/r1", group="G1", stream="S2", waited=0.15)),
        # A later episode on another replica must not be blamed.
        (2.0, "merge.head_of_line",
         dict(replica="G1/r2", group="G1", stream="S3", waited=1.0)),
    ])
    index = LifecycleIndex().consume_all(events)
    (path,) = extract_critical_paths(index)
    assert path.blocking_stream == "S2"
    budget = latency_budget(index)
    (blocker,) = budget["blockers"]
    assert blocker["stream"] == "S2"
    assert blocker["messages"] == 1
    assert blocker["share"] == pytest.approx(1.0)


def test_transport_split_uses_clock_offsets():
    # origin_ts is n1's raw clock, 0.5s ahead of the merged timeline;
    # meta.clock re-aligns it: transit = 0.35 - (0.8 - 0.5) = 0.05,
    # queue 0.02 of that, wire the remaining 0.03.
    events = _seq([
        (0.0, "meta.clock", dict(node="n1", ref="n0", offset=0.5)),
    ] + _lifecycle(1, 0.0) + [
        (0.3, "transport.queue_wait",
         dict(dst="n0", msg_id=1, wait=0.02)),
        (0.35, "net.context",
         dict(src="n1", dst="n0", origin="n1", msg_id=1, origin_ts=0.8)),
    ])
    index = LifecycleIndex().consume_all(events)
    assert index.clock.offsets == {"n1": 0.5}
    (path,) = extract_critical_paths(index)
    assert path.queue_wait == pytest.approx(0.02)
    assert path.wire_wait == pytest.approx(0.03)
    transport = latency_budget(index)["transport_ms"]
    assert transport["queue"]["p50"] == pytest.approx(20.0)
    assert transport["wire"]["p50"] == pytest.approx(30.0)


def test_transport_split_is_taken_over_the_messages_that_carry_it():
    # A submission batch's frame is traced under its first value only:
    # both values are attributed in full, the split is the one sample.
    events = _seq(_lifecycle(1, 0.0) + _lifecycle(2, 0.0) + [
        (0.3, "transport.queue_wait", dict(dst="n0", msg_id=1, wait=0.02)),
        (0.35, "net.context",
         dict(src="n1", dst="n0", origin="n1", msg_id=1, origin_ts=0.3)),
    ])
    index = LifecycleIndex().consume_all(events)
    sampled, unsampled = sorted(
        extract_critical_paths(index), key=lambda path: path.msg_id
    )
    assert sampled.queue_wait == pytest.approx(0.02)
    assert unsampled.queue_wait is None and unsampled.wire_wait is None
    assert unsampled.total == sampled.total
    budget = latency_budget(index)
    assert budget["messages"]["complete"] == 2
    assert budget["attributed_share"] == pytest.approx(1.0)
    assert budget["transport_ms"]["queue"]["n"] == 1
    assert budget["transport_ms"]["queue"]["p50"] == pytest.approx(20.0)
    assert any("1 sampled" in line for line in budget_lines(budget))


def test_skewed_merged_trace_never_goes_negative():
    # A merged two-node trace with imperfect alignment: the decide is
    # stamped *after* the learn.  Raw delta is negative; the clamped
    # segment must be 0 and the attributed share can only drop.
    events = _seq([
        (0.0, "client.submit",
         dict(client="c", stream="S1", msg_id=1, size=32, node="n0")),
        (0.1, "coord.propose",
         dict(coordinator="S1/coord", stream="S1", type="AppValue",
              msg_id=1, node="n0")),
        (0.2, "coord.phase2",
         dict(coordinator="S1/coord", stream="S1", instance=1,
              msg_ids=[1], positions=[1], node="n0")),
        (0.45, "learner.learned",
         dict(replica="G1/r1", stream="S1", instance=1, msg_ids=[1],
              positions=[1], node="n1")),
        (0.5, "coord.decide",
         dict(coordinator="S1/coord", stream="S1", instance=1,
              positions=[1], node="n0")),
        (0.6, "replica.deliver",
         dict(replica="G1/r1", group="G1", stream="S1", position=1,
              msg_id=1, node="n1")),
    ])
    index = LifecycleIndex().consume_all(events)
    (path,) = extract_critical_paths(index)
    assert all(v >= 0.0 for v in path.segments.values())
    assert path.segments["dissemination"] == 0.0
    # The out-of-order decide truncates merge_wait instead of
    # double-counting the overlap: segments still partition the total.
    assert sum(path.segments.values()) == pytest.approx(path.total)
    budget = latency_budget(index)
    assert budget["attributed_share"] == pytest.approx(1.0)


def test_budget_is_deterministic():
    events = _seq(
        _lifecycle(1, 0.0) + _lifecycle(2, 3.0, closed_by="S1/a3")
        + _lifecycle(3, 6.0, stream="S2")
    )
    one = latency_budget(LifecycleIndex().consume_all(events))
    two = latency_budget(LifecycleIndex().consume_all(events))
    assert one == two


def test_new_event_kinds_are_schema_valid():
    events = _seq([
        (1.0, "merge.head_of_line",
         dict(replica="G1/r1", group="G1", stream="S2", waited=0.1)),
        (2.0, "transport.queue_wait", dict(dst="n1", msg_id=7, wait=0.01)),
    ])
    for event in events:
        validate_event(event)


def test_budget_lines_and_diff_render():
    events = _seq(_lifecycle(1, 0.0))
    budget = latency_budget(LifecycleIndex().consume_all(events))
    lines = budget_lines(budget)
    assert any(line.startswith("SEGMENT") for line in lines)
    assert any("attributed: 100.0%" in line for line in lines)
    diff = diff_budgets(budget, budget)
    assert any("TOTAL" in line for line in diff)
    assert all("new" not in line for line in diff)


def test_budget_roundtrip_and_format_check(tmp_path):
    events = _seq(_lifecycle(1, 0.0))
    budget = latency_budget(LifecycleIndex().consume_all(events))
    path = tmp_path / "budget.json"
    write_budget(budget, str(path))
    assert load_budget(str(path)) == budget
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_budget(str(bad))
