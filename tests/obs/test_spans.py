"""Unit tests for lifecycle correlation (repro.obs.spans).

Feeds hand-written event sequences through :class:`LifecycleIndex` and
checks the reconstructed per-message spans and per-stage latencies.
"""

import json

import pytest

from repro.obs.recorder import FlightRecorder
from repro.obs.spans import LifecycleIndex, STAGES


def _seq(events):
    """Attach envelope fields to bare (ts, kind, fields) triples."""
    out = []
    for seq, (ts, kind, fields) in enumerate(events):
        event = {"ts": ts, "seq": seq, "kind": kind,
                 "cat": kind.partition(".")[0]}
        event.update(fields)
        out.append(event)
    return out


FULL_LIFE = _seq([
    (0.0, "client.submit",
     dict(client="c", stream="S1", msg_id=1, size=32)),
    (0.1, "coord.propose",
     dict(coordinator="S1/coord", stream="S1", type="AppValue", msg_id=1)),
    (0.3, "coord.phase2",
     dict(coordinator="S1/coord", stream="S1", instance=4,
          msg_ids=[1], positions=[9])),
    (0.6, "coord.decide",
     dict(coordinator="S1/coord", stream="S1", instance=4, positions=[9])),
    (0.8, "learner.learned",
     dict(replica="G1/r1", stream="S1", instance=4, msg_ids=[1],
          positions=[9])),
    (0.9, "learner.learned",
     dict(replica="G1/r2", stream="S1", instance=4, msg_ids=[1],
          positions=[9])),
    (1.0, "replica.deliver",
     dict(replica="G1/r1", group="G1", stream="S1", position=9, msg_id=1)),
    (1.2, "replica.deliver",
     dict(replica="G1/r2", group="G1", stream="S1", position=9, msg_id=1)),
    (1.3, "client.ack", dict(client="c", msg_id=1, latency=1.3)),
])


def test_full_lifecycle_reconstructed():
    index = LifecycleIndex().consume_all(FULL_LIFE)
    assert set(index.messages) == {1}
    m = index.messages[1]
    assert m.complete and m.delivered
    assert m.stream == "S1"
    assert m.instance == 4
    assert m.position == 9
    assert m.learned_at == {"G1/r1": 0.8, "G1/r2": 0.9}
    assert m.delivered_at == {"G1/r1": 1.0, "G1/r2": 1.2}
    assert index.coverage() == (1, 1)


def test_stage_latencies_use_first_learn_and_deliver():
    m = LifecycleIndex().consume_all(FULL_LIFE).messages[1]
    stages = m.stage_latencies()
    assert stages["submit->propose"] == pytest.approx(0.1)
    assert stages["propose->phase2"] == pytest.approx(0.2)
    assert stages["phase2->decide"] == pytest.approx(0.3)
    assert stages["decide->learn"] == pytest.approx(0.2)
    assert stages["learn->deliver"] == pytest.approx(0.2)
    assert stages["submit->deliver"] == pytest.approx(1.0)
    assert stages["submit->ack"] == pytest.approx(1.3)
    assert set(stages) == set(STAGES)


def test_stage_samples_cover_delivered_messages_only():
    events = FULL_LIFE + _seq([
        (2.0, "client.submit",
         dict(client="c", stream="S1", msg_id=2, size=32)),
    ])
    index = LifecycleIndex().consume_all(events)
    samples = index.stage_samples()
    assert len(samples["submit->deliver"]) == 1
    assert index.coverage() == (1, 1)
    assert len(index.delivered_messages()) == 1
    assert len(index.messages) == 2


def test_retry_keeps_first_submission_time():
    events = _seq([
        (0.0, "client.submit", dict(client="c", stream="S1", msg_id=3, size=8)),
        (2.0, "client.submit", dict(client="c", stream="S1", msg_id=3, size=8)),
    ])
    index = LifecycleIndex().consume_all(events)
    assert index.messages[3].submitted_at == 0.0


def test_decide_correlates_via_phase2_instance_map():
    # A decide names (stream, instance) only; msg ids come from the
    # phase2 event indexed earlier.
    events = _seq([
        (0.0, "coord.phase2",
         dict(coordinator="S1/coord", stream="S1", instance=0,
              msg_ids=[10, 11], positions=[0, 1])),
        (0.2, "coord.decide",
         dict(coordinator="S1/coord", stream="S1", instance=0,
              positions=[0, 1])),
    ])
    index = LifecycleIndex().consume_all(events)
    assert index.messages[10].decided_at == 0.2
    assert index.messages[11].decided_at == 0.2


def test_subscription_timeline_switch_duration():
    events = _seq([
        (1.0, "control.subscribe",
         dict(client="c", group="G1", stream="S2", via="S1", request_id=42)),
        (1.2, "merge.subscribe.begin",
         dict(replica="G1/r1", group="G1", stream="S2", request_id=42)),
        (1.5, "merge.subscribe.commit",
         dict(replica="G1/r1", group="G1", stream="S2", request_id=42,
              merge_point=17, waited=0.3)),
        (1.9, "merge.subscribe.commit",
         dict(replica="G1/r2", group="G1", stream="S2", request_id=42,
              merge_point=17, waited=0.7)),
    ])
    index = LifecycleIndex().consume_all(events)
    timeline = index.subscriptions[42]
    assert timeline.kind == "subscribe"
    assert timeline.group == "G1" and timeline.stream == "S2"
    assert timeline.merge_points == {"G1/r1": 17, "G1/r2": 17}
    assert timeline.switch_duration == pytest.approx(0.9)


def test_unsubscribe_timeline():
    events = _seq([
        (1.0, "control.unsubscribe",
         dict(client="c", group="G1", stream="S1", request_id=5)),
        (1.4, "merge.unsubscribe",
         dict(replica="G1/r1", group="G1", stream="S1", request_id=5)),
    ])
    timeline = LifecycleIndex().consume_all(events).subscriptions[5]
    assert timeline.kind == "unsubscribe"
    assert timeline.switch_duration == pytest.approx(0.4)


def test_from_jsonl_and_from_recorder_agree(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "\n".join(json.dumps(e) for e in FULL_LIFE) + "\n", encoding="utf-8"
    )
    from_file = LifecycleIndex.from_jsonl(str(path))
    recorder = FlightRecorder()
    for event in FULL_LIFE:
        recorder.record(event)
    from_ring = LifecycleIndex.from_recorder(recorder)
    assert from_file.coverage() == from_ring.coverage() == (1, 1)
    assert from_file.messages[1].stage_latencies() == \
        from_ring.messages[1].stage_latencies()


def test_stage_latencies_clamp_skewed_boundaries():
    # A merged multi-node trace can stamp a learn *before* its decide;
    # the per-stage view clamps at zero rather than going negative.
    events = _seq([
        (0.0, "client.submit",
         dict(client="c", stream="S1", msg_id=8, size=8)),
        (0.1, "coord.phase2",
         dict(coordinator="S1/coord", stream="S1", instance=1,
              msg_ids=[8], positions=[0])),
        (0.25, "learner.learned",
         dict(replica="G1/r1", stream="S1", instance=1, msg_ids=[8],
              positions=[0])),
        (0.3, "coord.decide",
         dict(coordinator="S1/coord", stream="S1", instance=1,
              positions=[0])),
        (0.4, "replica.deliver",
         dict(replica="G1/r1", group="G1", stream="S1", position=0,
              msg_id=8)),
    ])
    index = LifecycleIndex().consume_all(events)
    stages = index.messages[8].stage_latencies()
    assert stages["decide->learn"] == 0.0
    assert all(v >= 0.0 for v in stages.values() if v is not None)
    samples = index.stage_samples()
    assert all(v >= 0.0 for vs in samples.values() for v in vs)
