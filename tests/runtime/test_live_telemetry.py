"""Live telemetry acceptance: a real 2-node cluster with the full
telemetry plane on.

Boots ``run_live`` with two clock domains (one transport + kernel
each, deliberately skewed), per-node JSONL traces and HTTP endpoints,
then checks the whole pipeline end-to-end: node-stamped traces merge
into a schema-valid timeline where at least one message's lifecycle
(submit -> decide -> deliver) spans both nodes, the supervisor's clock
handshake recovered the injected skew, health scrapes happened, and
the aggregated metrics dump is node-prefixed.

Wall-clock runs on shared CI machines can stall arbitrarily, so the
test retries once before failing (same policy as test_live_smoke).
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.obs import (
    LifecycleIndex,
    cross_node_messages,
    merge_files,
    validate_file,
)
from repro.runtime.supervisor import LiveCluster, LiveConfig, run_live

SKEW = 0.5


def _attempt(tmp_path, tag):
    telemetry_dir = str(tmp_path / f"telemetry-{tag}")
    config = LiveConfig(
        streams=2,
        replicas=3,
        duration=2.0,
        rate=120.0,
        drain_timeout=20.0,
        nodes=2,
        telemetry_dir=telemetry_dir,
        clock_skew=SKEW,
        metrics_out=os.path.join(telemetry_dir, "metrics.json"),
    )
    return config, run_live(config)


def test_two_node_cluster_with_telemetry(tmp_path):
    config, report = _attempt(tmp_path, "a")
    if not report.ok:
        config, report = _attempt(tmp_path, "b")    # CI clocks are noisy
    assert report.ok, report.summary()
    assert report.nodes == 2
    assert "on 2 nodes" in report.summary()

    # Per-node traces exist and are stamped with their node id.
    assert sorted(report.node_traces) == ["n1", "n2"]
    for node, path in report.node_traces.items():
        with open(path) as handle:
            first = json.loads(handle.readline())
        assert first["node"] == node
        assert first["kind"] == "meta.node"

    # The clock handshake recovered the injected skew (localhost RTT is
    # sub-millisecond; allow generous CI noise).
    assert report.clock_offsets["n1"] == 0.0
    assert report.clock_offsets["n2"] == pytest.approx(SKEW, abs=0.2)

    # Merge -> one schema-valid, causally consistent timeline.
    out = str(tmp_path / "merged.trace.jsonl")
    merged = merge_files(
        [report.node_traces["n1"], report.node_traces["n2"]], out=out
    )
    assert validate_file(out) == len(merged)
    assert merged[0]["kind"] == "meta.merge"
    assert merged[0]["offsets"]["n2"] == pytest.approx(SKEW, abs=0.2)

    # At least one message's lifecycle crossed the wire between nodes,
    # and its causal order survived the merge.
    spanning = cross_node_messages(merged)
    assert spanning, "no message lifecycle spanned two nodes"
    index = LifecycleIndex().consume_all(merged)
    complete = [
        m for m in index.messages.values()
        if m.msg_id in spanning and m.submitted_at is not None
        and m.decided_at is not None and m.delivered_at
    ]
    assert complete, "no cross-node lifecycle fully reconstructed"
    for message in complete:
        assert message.submitted_at <= message.decided_at
        assert message.decided_at <= max(message.delivered_at.values())

    # The supervisor scraped /health and wrote endpoints.json.
    assert report.scrapes > 0
    endpoints_path = os.path.join(config.telemetry_dir, "endpoints.json")
    with open(endpoints_path) as handle:
        endpoints = json.load(handle)
    assert sorted(endpoints["nodes"]) == ["n1", "n2"]

    # --metrics-out is the aggregate of both nodes' scraped dumps.
    with open(config.metrics_out) as handle:
        dump = json.load(handle)
    assert dump["format"] == "repro-metrics/1"
    actors = {entry["actor"] for entry in dump["counters"]}
    assert any(actor.startswith("n1/") for actor in actors)
    assert any(actor.startswith("n2/") for actor in actors)

    # Trace context propagated across the wire: the receiving node saw
    # the sender's origin stamp.
    contexts = [e for e in merged if e["kind"] == "net.context"]
    assert any(
        e["origin"] is not None and e["origin"] != e["node"]
        for e in contexts
    )


def _submits_inside_subscribe_window(telemetry_dir, rate):
    """(submits, expected) between the scripted ``control.subscribe``
    and the last replica's ``merge.subscribe.commit`` of that request."""
    report = run_live(LiveConfig(
        streams=2, replicas=2, duration=1.5, rate=rate, burst=2,
        drain_timeout=20.0, telemetry_dir=str(telemetry_dir),
    ))
    assert report.ok, report.summary()
    with open(report.node_traces["n1"]) as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    request = next(e for e in events if e["kind"] == "control.subscribe")
    opened = request["ts"]
    closed = max(
        e["ts"] for e in events
        if e["kind"] == "merge.subscribe.commit"
        and e["request_id"] == request["request_id"]
    )
    submits = sum(
        1 for e in events
        if e["kind"] == "client.submit" and opened < e["ts"] < closed
    )
    return submits, rate * (closed - opened)


def test_scripted_subscribe_happens_under_traffic(tmp_path):
    """The "subscription under traffic" run must keep submitting while
    it subscribes: the workload is a task of its own, not a loop that
    awaits the subscribe inline."""
    rate = 1000.0
    submits, expected = _submits_inside_subscribe_window(tmp_path / "a", rate)
    if not (expected >= 10 and submits >= 1):
        submits, expected = _submits_inside_subscribe_window(   # noisy CI
            tmp_path / "b", rate
        )
    assert expected >= 10, "window too short to tell; raise the rate"
    assert submits >= 1, f"0 of ~{expected:.0f} expected submits in window"


def _bursty_attempt(tmp_path, tag):
    return run_live(LiveConfig(
        streams=2, replicas=3, duration=1.5, rate=800.0, burst=8,
        drain_timeout=20.0, nodes=3,
        telemetry_dir=str(tmp_path / f"bursty-{tag}"),
    ))


def test_batched_submissions_are_attributed_in_full_and_sampled_per_frame(
    tmp_path, capsys
):
    """``--burst 8``: eight submissions per loop turn leave as one
    ``Propose`` per stream.  Every value keeps its own submit / propose /
    deliver events, so its latency is attributed in full; the frame's
    ``transport.queue_wait`` + ``net.context`` pair is emitted once,
    under the batch's first value -- a sample, which the three-node
    merge, the schema and ``repro latency`` all accept."""
    from repro.cli import main
    from repro.obs.critpath import latency_budget

    report = _bursty_attempt(tmp_path, "a")
    if not report.ok:
        report = _bursty_attempt(tmp_path, "b")     # CI clocks are noisy
    assert report.ok, report.summary()
    assert sorted(report.node_traces) == ["n1", "n2", "n3"]

    out = str(tmp_path / "merged.trace.jsonl")
    merged = merge_files(sorted(report.node_traces.values()), out=out)
    assert validate_file(out) == len(merged)

    index = LifecycleIndex().consume_all(merged)
    budget = latency_budget(index)
    delivered = min(report.delivered_per_replica.values())
    assert delivered > 100
    assert budget["messages"]["complete"] == delivered
    assert budget["coverage"] == 1.0
    assert budget["attributed_share"] == pytest.approx(1.0, abs=1e-6)

    # One pair per Propose frame, each under one of its values' msg_id.
    submits = sum(1 for e in merged if e["kind"] == "client.submit")
    waits = [e for e in merged if e["kind"] == "transport.queue_wait"]
    contexts = [e for e in merged if e["kind"] == "net.context"]
    assert submits == delivered
    assert 0 < len(waits) <= submits // 3       # 8 per turn over <= 2 streams
    assert len(contexts) == len(waits)
    assert {e["msg_id"] for e in waits} == {e["msg_id"] for e in contexts}
    sampled = budget["transport_ms"]["queue"]["n"]
    assert sampled == len(waits) == budget["transport_ms"]["wire"]["n"]

    assert main(["latency", out]) == 0
    printed = capsys.readouterr().out
    assert "attributed: 100.0%" in printed
    assert f"transport (live, {sampled} sampled)" in printed


def test_untelemetried_cluster_still_carries_flight_recorder(tmp_path):
    """Satellite: even without --telemetry-dir a live cluster keeps a
    causal ring buffer and can dump it next to --metrics-out."""

    async def main():
        metrics_out = str(tmp_path / "out" / "metrics.json")
        os.makedirs(os.path.dirname(metrics_out), exist_ok=True)
        cluster = LiveCluster(LiveConfig(metrics_out=metrics_out))
        assert cluster.recorder is not None
        # The private tracer feeds the recorder (no external tracer
        # installed in this test).
        cluster.nodes[0].kernel.tracer.emit(
            "invariant.violation", 0.0, message="synthetic", msg_id=1
        )
        paths = cluster.dump_flight_recordings("synthetic violation")
        assert paths == [str(tmp_path / "out" / "live-flight.jsonl")]
        events = [json.loads(line) for line in open(paths[0])]
        assert events[0]["kind"] == "meta.violation"
        assert events[0]["message"] == "synthetic violation"
        assert any(e["kind"] == "invariant.violation" for e in events)

    asyncio.run(asyncio.wait_for(main(), timeout=15))


def test_flight_ring_of_records_reads_back_as_the_ring_of_dicts_did(tmp_path):
    """A recorded live run, read every way the ring is read: the ring
    holds the per-value kinds as records (a delivered run as one), and
    ``events()``,
    ``causal_history()``, ``dump()`` and ``LifecycleIndex.from_recorder``
    return what a ring of the event dicts themselves (the recorder as
    it was: fed here from a dict sink riding on the same tracer)
    returns.  The run also brackets the collector policy."""
    import gc

    from repro.obs import (
        FlightRecorder, ListSink, Tracer, installed, validate_event,
    )
    from repro.obs.schema import FIXED_SHAPE

    async def main():
        found = (gc.get_threshold(), gc.get_freeze_count())
        as_dicts = ListSink()
        with installed(tracer=Tracer(sinks=[as_dicts])):
            cluster = LiveCluster(LiveConfig(streams=1, replicas=2))
        try:
            await cluster.start()
            # While the datapath runs: set-up heap frozen, generations
            # resized (docs/RUNTIME.md, "Collector policy").
            assert gc.get_freeze_count() > found[1]
            assert gc.get_threshold() != found[0]
            values = [
                cluster.client_node.multicast("s1", f"m{i}", 64)
                for i in range(40)
            ]
            assert await cluster.drain(20.0)
            while min(len(s) for s in cluster.sequences().values()) < 40:
                await asyncio.sleep(0.01)
        finally:
            await cluster.stop()
        assert (gc.get_threshold(), gc.get_freeze_count()) == found
        await cluster.stop()            # idempotent, and still as found
        assert (gc.get_threshold(), gc.get_freeze_count()) == found
        assert all(not node.kernel.failures for node in cluster.nodes)
        return cluster.recorder, as_dicts.events, values[17].msg_id

    recorder, events, msg_id = asyncio.run(
        asyncio.wait_for(main(), timeout=60)
    )
    before = FlightRecorder()
    for event in events:
        before.record(event)

    # Every per-value kind went into the ring as a record, nothing else.
    assert {
        entry[2] for entry in recorder._buffer if entry.__class__ is tuple
    } == set(FIXED_SHAPE)
    assert not any(
        entry["kind"] in FIXED_SHAPE
        for entry in recorder._buffer if entry.__class__ is dict
    )
    # The 40 values left in one loop turn, so each replica delivered
    # them in runs: a record per run, (ts, seq, kind, replica, group,
    # stream, first position, *msg_ids), that reads back per value.
    runs = [
        entry for entry in recorder._buffer
        if entry.__class__ is tuple and entry[2] == "replica.deliver"
    ]
    assert sum(len(run) - 7 for run in runs) == 2 * 40 > len(runs)
    assert len(recorder) < len(events)
    assert [list(e.items()) for e in recorder.events()] == [
        list(e.items()) for e in before.events()
    ]
    for event in recorder.events():
        validate_event(event)
    history = recorder.causal_history(msg_id)
    assert history == before.causal_history(msg_id)
    assert {"client.submit", "coord.propose", "replica.deliver"} <= {
        e["kind"] for e in history
    }
    header = {"message": "forced", "ts": 1.0, "msg_id": msg_id}
    paths = [str(tmp_path / name) for name in ("after.jsonl", "before.jsonl")]
    assert recorder.dump(paths[0], header=header) == len(events)
    before.dump(paths[1], header=header)
    with open(paths[0], "rb") as after, open(paths[1], "rb") as reference:
        assert after.read() == reference.read()
    index = LifecycleIndex.from_recorder(recorder)
    reference = LifecycleIndex.from_recorder(before)
    assert index.events_seen == reference.events_seen == len(events)
    assert index.stage_samples() == reference.stage_samples()
    assert index.coverage() == reference.coverage()
    assert len(index.delivered_messages()) == 40


def test_console_render_is_pure():
    from repro.runtime.console import render

    health = {
        "n1": {
            "node": "n1", "now": 5.0,
            "streams": {"s1": {"next_instance": 9, "positions_decided": 120,
                               "leading": True}},
            "replicas": {"r1": {"subscriptions": ["s1", "s2"],
                                "positions": {"s1": 8},
                                "delivered": 117,
                                "pending_subscription": False}},
            "transport": {"queue_depths": {"s1/coord": 2},
                          "counters": {"messages_sent": 500,
                                       "messages_delivered": 480,
                                       "messages_dropped": 1,
                                       "reconnect_attempts": 0,
                                       "peak_send_queue": 7}},
            "client": {"submitted": 130},
        },
        "n2": None,
    }
    previous = {
        "n1": {"streams": {"s1": {"positions_decided": 100}}},
    }
    metrics = {
        "n1": {"histograms": [{"actor": "client", "name": "latency_ms",
                               "n": 100, "mean": 2.0, "p50": 1.5,
                               "p95": 3.0, "p99": 4.5}]},
        "n2": None,
    }
    frame = render(health, metrics, previous, interval=2.0)
    assert "1/2 nodes up" in frame
    assert "(unreachable)" in frame
    assert "10.0" in frame                   # (120-100)/2s decide rate
    assert "s1,s2" in frame and "steady" in frame
    assert "s1/coord:2" in frame
    assert "submitted 130" in frame
    assert "p50 1.5 ms" in frame and "p99 4.5 ms" in frame
    # Previousless frames render without rates rather than crashing.
    first = render(health, metrics, None, interval=1.0)
    assert "-" in first


def test_console_alerts_panel_and_health_scores():
    from repro.runtime.console import render

    base = {"node": "n1", "streams": {}, "replicas": {}, "transport": {},
            "client": {"submitted": 1}}
    healthy = {"n1": {**base, "health_score": 100, "alerts": []}}
    frame = render(healthy, {"n1": None}, None, interval=1.0)
    assert "health n1=100" in frame
    assert "alerts: none" in frame

    alerting = {
        "n1": {**base, "health_score": 60, "alerts": [
            {"detector": "backpressure", "severity": "warning",
             "message": "send queue to acc at 900/1024", "key": "acc"},
        ]},
        "n2": None,      # dead node: rendered as a critical condition
    }
    frame = render(alerting, {"n1": None, "n2": None}, None, interval=1.0)
    assert "health n1=60 n2=?" in frame
    assert "backpressure: send queue to acc" in frame
    assert "critical" in frame and "telemetry unreachable" in frame


def test_fetch_all_dead_endpoint_costs_one_timeout_not_n(tmp_path):
    """Satellite: `repro top` must not hang when a node dies.  Scrapes
    run concurrently with a per-node timeout, so N dead endpoints cost
    max(timeout), not N x timeout, and survivors still render."""
    import socket
    import time as time_mod

    from repro.runtime.console import fetch_all

    # Reserved-but-unserved ports: connections hang until timeout
    # (connect to a listening socket that never accepts/answers).
    listeners = []
    endpoints = {}
    for name in ("n1", "n2", "n3"):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(0)
        listeners.append(sock)
        endpoints[name] = ("127.0.0.1", sock.getsockname()[1])
    try:
        started = time_mod.monotonic()
        results = fetch_all(endpoints, "/health", timeout=0.4)
        elapsed = time_mod.monotonic() - started
    finally:
        for sock in listeners:
            sock.close()
    assert results == {"n1": None, "n2": None, "n3": None}
    # Serial scrapes would need >= 3 * 0.4s; concurrent ones ~0.4s.
    assert elapsed < 1.0


def test_console_stage_breakdown_panel():
    from repro.runtime.console import render

    health = {"n1": {"node": "n1", "streams": {}, "replicas": {},
                     "transport": {}, "client": {"submitted": 1}}}
    base_metrics = {
        "n1": {"histograms": [
            {"actor": "client", "name": "latency_ms", "n": 10,
             "mean": 2.0, "p50": 1.5, "p95": 3.0, "p99": 4.5},
        ]},
    }
    # Without stage histograms the panel is absent entirely.
    frame = render(health, base_metrics, None, interval=1.0)
    assert "STAGE" not in frame

    stage_metrics = {
        "n1": {"histograms": base_metrics["n1"]["histograms"] + [
            {"actor": "s1/coord", "name": "batch_wait_ms", "n": 40,
             "mean": 1.0, "p50": 0.8, "p95": 2.0, "p99": 2.5},
            {"actor": "n1", "name": "queue_wait_ms", "n": 7,
             "mean": 0.1, "p50": 0.05, "p95": 0.2, "p99": 0.3},
            {"actor": "n1", "name": "loop_lag_ms", "n": 30,
             "mean": 0.4, "p50": 0.3, "p95": 0.9, "p99": 1.2},
            # Sampleless or unknown histograms never make a row.
            {"actor": "r1", "name": "merge_hol_wait_ms", "n": 0,
             "mean": None, "p50": None, "p95": None, "p99": None},
            {"actor": "r1", "name": "unrelated_ms", "n": 5,
             "mean": 1.0, "p50": 1.0, "p95": 1.0, "p99": 1.0},
        ]},
    }
    frame = render(health, stage_metrics, None, interval=1.0)
    assert "STAGE" in frame
    assert "batch wait" in frame
    assert "transport queue" in frame
    assert "event-loop lag" in frame
    assert "merge head-of-line" not in frame   # n=0 filtered
    assert "unrelated" not in frame
