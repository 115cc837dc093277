"""Watchdog plane unit tests (repro.obs.watch) and the `repro watch`
CLI exit-code contract.

Each detector is fed synthetic samples to prove it fires on its
condition and clears on recovery; the Watchdog's transition diffing,
health scoring and trace emission are checked against the event
schema; TraceWatch is driven end to end over a growing run directory
with the alert log validated like any other trace.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.schema import validate_file
from repro.obs.watch import (
    Alert,
    BackpressureDetector,
    ClockDriftDetector,
    DeliveryCollapseDetector,
    EndpointsWatch,
    QuorumStallDetector,
    ReconfigStallDetector,
    TraceWatch,
    UnreachableDetector,
    Watchdog,
    WatermarkStallDetector,
    sample_from_health,
)


def _sample(at, **fields):
    return {"at": at, "streams": {}, **fields}


# -- detectors ---------------------------------------------------------

def test_watermark_stall_fires_and_clears():
    detector = WatermarkStallDetector(stall_after=2.0)
    stuck = {"s1": {"low": 5, "high": 9}}
    assert detector.observe(_sample(0.0, streams=stuck)) == []
    assert detector.observe(_sample(1.0, streams=stuck)) == []
    alerts = detector.observe(_sample(3.0, streams=stuck))
    assert [a.key for a in alerts] == ["s1"]
    assert alerts[0].severity == "warning"
    # The low watermark moving again clears it.
    moved = {"s1": {"low": 6, "high": 9}}
    assert detector.observe(_sample(4.0, streams=moved)) == []


def test_watermark_stall_quiet_when_low_equals_high():
    # End of a run: deliveries stop with everyone caught up -- no gap,
    # no alert (the baseline zero-false-positive requirement).
    detector = WatermarkStallDetector(stall_after=1.0)
    done = {"s1": {"low": 9, "high": 9}}
    for at in (0.0, 2.0, 4.0, 8.0):
        assert detector.observe(_sample(at, streams=done)) == []


def test_quorum_stall_needs_pending_proposals():
    detector = QuorumStallDetector(stall_after=2.0)
    idle = {"s1": {"pending": 0, "pending_age": None}}
    assert detector.observe(_sample(10.0, streams=idle)) == []
    stalled = {"s1": {"pending": 3, "pending_age": 2.5}}
    alerts = detector.observe(_sample(10.0, streams=stalled))
    assert [a.severity for a in alerts] == ["critical"]


def test_clock_drift_fires_on_movement_not_static_domains():
    detector = ClockDriftDetector()         # 0.2 s bound
    # The first estimate defines the node's clock domain: a large but
    # *measured* offset is compensated by the merge plane, not drift
    # (a multi-process worker that booted 5s late is healthy).
    assert detector.observe(
        _sample(1.0, clock_offsets={"n2": 5.0}, clock_rtts={"n2": 0.01})
    ) == []
    # Movement within bound + RTT slack stays quiet...
    sample = _sample(2.0, clock_offsets={"n2": 5.3},
                     clock_rtts={"n2": 0.25})
    assert detector.observe(sample) == []       # drift 0.3 < 0.2 + 0.25
    # ...but the estimate walking away from its baseline is drift.
    sample = _sample(3.0, clock_offsets={"n2": 5.5},
                     clock_rtts={"n2": 0.01})
    alerts = detector.observe(sample)
    assert [a.key for a in alerts] == ["n2"]
    assert "drifted" in alerts[0].message


def test_backpressure_uses_sample_capacity():
    detector = BackpressureDetector()       # 80% of capacity
    sample = _sample(1.0, queue_depths={"n2": 900}, queue_capacity=1000)
    assert [a.key for a in detector.observe(sample)] == ["n2"]
    calm = _sample(2.0, queue_depths={"n2": 10}, queue_capacity=1000)
    assert detector.observe(calm) == []


def test_delivery_collapse_fires_only_while_submissions_continue():
    # 2 s windows; a drop below 25% of at least 50/s is a collapse.
    detector = DeliveryCollapseDetector()
    # Healthy window: 100/s delivered, then the datapath dies while the
    # client keeps submitting.
    for i in range(5):
        at = 0.5 * i
        assert detector.observe(_sample(
            at, delivered=int(100 * at), submitted=int(100 * at)
        )) == []
    alerts = detector.observe(_sample(4.0, delivered=210, submitted=400))
    assert [a.severity for a in alerts] == ["critical"]


def test_delivery_collapse_quiet_at_end_of_run():
    detector = DeliveryCollapseDetector()
    # Delivered AND submitted both stop: workload over, not a collapse.
    for at, total in ((0.0, 0), (1.0, 100), (2.0, 200), (3.0, 205),
                      (4.0, 205), (5.0, 205)):
        assert detector.observe(_sample(
            at, delivered=total, submitted=total
        )) == []


def test_reconfig_stall_and_unreachable():
    assert [a.key for a in ReconfigStallDetector(bound=5.0).observe(
        _sample(9.0, pending_reconfigs={"7": 6.0})
    )] == ["7"]
    assert [a.node for a in UnreachableDetector().observe(
        _sample(1.0, unreachable=("n3",))
    )] == ["n3"]


# -- Watchdog ----------------------------------------------------------

class _OnOff:
    name = "onoff"

    def __init__(self):
        self.firing = False

    def observe(self, sample):
        if not self.firing:
            return []
        return [Alert(detector=self.name, severity="critical",
                      message="on", at=sample["at"], key="k")]


def test_watchdog_diffs_transitions_and_scores_health():
    detector = _OnOff()
    watchdog = Watchdog([detector])
    assert watchdog.observe(_sample(0.0)) == ([], [])
    assert watchdog.health_score() == 100
    detector.firing = True
    raised, cleared = watchdog.observe(_sample(1.0))
    assert len(raised) == 1 and cleared == []
    # Still firing: no new raise.
    assert watchdog.observe(_sample(2.0)) == ([], [])
    assert watchdog.health_score() == 60        # one critical: -40
    detector.firing = False
    raised, cleared = watchdog.observe(_sample(3.0))
    assert raised == [] and len(cleared) == 1
    assert watchdog.health_score() == 100
    assert watchdog.raised_total == 1
    assert len(watchdog.history) == 1


def test_watchdog_emits_schema_valid_trace_events():
    from repro.obs.trace import ListSink, Tracer

    sink = ListSink()
    detector = _OnOff()
    watchdog = Watchdog([detector], tracer=Tracer(sinks=[sink]))
    detector.firing = True
    watchdog.observe(_sample(1.0))
    detector.firing = False
    watchdog.observe(_sample(2.0))
    kinds = [event["kind"] for event in sink.events]
    assert kinds == ["alert.raise", "alert.clear"]
    from repro.obs.schema import validate_event
    for event in sink.events:
        validate_event(event)


# -- sample_from_health ------------------------------------------------

def test_sample_from_health_distils_watermarks_and_queues():
    snapshot = {
        "node": "n1", "now": 12.5,
        "streams": {"s1": {"positions_decided": 40, "leading": True}},
        "replicas": {
            "r1": {"delivered": 70, "positions": {"s1": 38}},
            "r2": {"delivered": 68, "positions": {"s1": 36}},
        },
        "transport": {"queue_depths": {"acc:s1:1": 7},
                      "queue_capacity": 1024},
        "client": {"submitted": 80},
    }
    sample = sample_from_health({"n1": snapshot})
    assert sample["at"] == 12.5 and sample["node"] == "n1"
    assert sample["streams"]["s1"] == {"high": 40, "low": 36}
    assert sample["delivered"] == 138 and sample["submitted"] == 80
    assert sample["queue_depths"] == {"acc:s1:1": 7}
    assert sample["queue_capacity"] == 1024
    assert "unreachable" not in sample


def test_sample_from_health_folds_a_cluster():
    n1 = {
        "now": 1.0,
        "streams": {"s1": {"positions_decided": 40}},
        "replicas": {"r1": {"delivered": 70, "positions": {"s1": 38}}},
        "transport": {"queue_depths": {"acc:s1:1": 7}},
        "client": {"submitted": 80},
    }
    n2 = {
        "now": 2.0,
        "replicas": {"r2": {"delivered": 60,
                            "positions": {"s1": 30, "s2": 5}}},
        "transport": {"queue_depths": {"acc:s1:1": 3}},
        "client": {"submitted": 20},
    }
    sample = sample_from_health({"n2": n2, "n3": None, "n1": n1}, at=9.0)
    # Lowest low and highest high across nodes; the scrape's clock.
    assert sample["at"] == 9.0 and "node" not in sample
    assert sample["streams"] == {"s1": {"high": 40, "low": 30},
                                 "s2": {"high": 5, "low": 5}}
    assert sample["delivered"] == 130 and sample["submitted"] == 100
    assert sample["queue_depths"] == {"n1:acc:s1:1": 7, "n2:acc:s1:1": 3}
    assert sample["unreachable"] == ("n3",)
    assert [a.node for a in UnreachableDetector().observe(sample)] == ["n3"]


# -- EndpointsWatch ----------------------------------------------------

def test_endpoints_watch_scrapes_silent_nodes_at_once(tmp_path):
    # Four listening sockets that never answer: one step waits for one
    # timeout, not four in a row, and lists every node as unreachable.
    import socket
    import time

    import repro.runtime.console  # noqa: F401  (its import is not scrape time)

    listeners = []
    endpoints = {}
    for name in ("n1", "n2", "n3", "n4"):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(0)
        listeners.append(sock)
        endpoints[name] = ("127.0.0.1", sock.getsockname()[1])
    out = str(tmp_path / "alerts.jsonl")
    watch = EndpointsWatch(endpoints, clock=time.time, timeout=0.3, out=out)
    try:
        started = time.monotonic()
        tick = watch.step()
        elapsed = time.monotonic() - started
    finally:
        for sock in listeners:
            sock.close()
    assert tick["unreachable"] == ["n1", "n2", "n3", "n4"]
    assert elapsed < 2 * 0.3
    assert sorted(a.key for a in tick["raised"]) == ["n1", "n2", "n3", "n4"]
    summary = watch.close()
    assert summary["health_score"] == 0 and len(summary["alerts"]) == 4
    # The alert log is a schema-valid trace: 4 raises, then audit.check.
    assert validate_file(out) == 5


# -- TraceWatch end to end ---------------------------------------------

def _write(path, events, mode="w"):
    with open(path, mode, encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def _deliver(node, replica, stream, position, msg_id, ts=None):
    return {
        "ts": ts if ts is not None else 0.1 * position, "seq": position,
        "kind": "replica.deliver", "cat": "replica", "node": node,
        "replica": replica, "group": "g1", "stream": stream,
        "position": position, "msg_id": msg_id,
    }


def test_trace_watch_follows_appends_and_certifies(tmp_path):
    trace = str(tmp_path / "n1.trace.jsonl")
    out = str(tmp_path / "alerts.jsonl")
    _write(trace, [_deliver("n1", "r1", "s1", 1, 1)])
    watch = TraceWatch(directory=str(tmp_path), out=out)
    tick = watch.step()
    assert tick["events"] == 1 and tick["violations"] == []
    # The file grows between steps -- incremental, not re-read.
    _write(trace, [_deliver("n1", "r1", "s1", 2, 2)], mode="a")
    assert watch.step()["events"] == 1
    summary = watch.close()
    assert summary["ok"] and summary["events"] == 2
    assert summary["health_score"] == 100 and summary["alerts"] == []
    # The alert log is a schema-valid trace (closing audit.check).
    assert validate_file(out) >= 1


def test_trace_watch_reports_injected_violation(tmp_path):
    _write(str(tmp_path / "n1.trace.jsonl"),
           [_deliver("n1", "r1", "s1", 1, 10)])
    _write(str(tmp_path / "n2.trace.jsonl"),
           [_deliver("n2", "r2", "s1", 1, 99)])
    out = str(tmp_path / "alerts.jsonl")
    watch = TraceWatch(directory=str(tmp_path), out=out)
    watch.drain()
    summary = watch.close()
    assert not summary["ok"]
    assert {v["property"] for v in summary["violations"]} == {
        "stream-agreement", "prefix-agreement"
    }
    kinds = [json.loads(line)["kind"] for line in open(out)]
    assert kinds.count("audit.violation") == 2
    assert validate_file(out) == len(kinds)


def test_trace_watch_raises_watermark_stall_then_summarises(tmp_path):
    trace = str(tmp_path / "n1.trace.jsonl")
    _write(trace, [_deliver("n1", "r1", "s1", 1, 1, ts=0.0),
                   _deliver("n1", "r2", "s1", 1, 1, ts=0.0)])
    watch = TraceWatch(directory=str(tmp_path),
                       out=str(tmp_path / "alerts.jsonl"),
                       stall_after=1.0)
    watch.step()
    # r1 advances, r2 freezes: the low watermark stalls at 1 while the
    # high reaches 4 over >1s of trace time.
    _write(trace, [_deliver("n1", "r1", "s1", p, p, ts=1.0 * p)
                   for p in (2, 3, 4)], mode="a")
    watch.step()
    watch.step()
    summary = watch.close()
    assert summary["ok"]                 # a stall is an anomaly, not unsafe
    assert any(a["detector"] == "watermark_stall"
               for a in summary["alerts"])


def _skewed_run(tmp_path, skew=5.0):
    """Two per-node traces, n2's clock ``skew`` seconds ahead: n2
    coordinates s1 (two decided instances) and s2 (a proposal that is
    never decided), both nodes deliver s1, and n1 keeps submitting."""
    def event(kind, ts, seq, node, **fields):
        return {"ts": ts, "seq": seq, "kind": kind,
                "cat": kind.split(".")[0], "node": node, **fields}

    def coord(kind, ts, seq, stream, **fields):
        return event(kind, skew + ts, seq, "n2",
                     coordinator=f"{stream}/coord", stream=stream, **fields)

    n1 = [event("meta.node", 0.0, 0, "n1", clock="wall"),
          event("meta.clock", 0.0, 1, "n1", ref="n1", offset=0.0)]
    n1 += [_deliver("n1", "r1", "s1", p, p, ts=1.5 + 0.1 * p)
           for p in (1, 2, 3)]
    n1 += [event("client.submit", 2.0 + 0.5 * i, 5 + i, "n1",
                 client="client", stream="s2", msg_id=100 + i, size=64)
           for i in range(5)]
    n2 = [event("meta.node", skew, 0, "n2", clock="wall"),
          event("meta.clock", skew, 1, "n2", ref="n1", offset=skew),
          coord("coord.propose", 0.5, 2, "s1", type="AppValue"),
          coord("coord.decide", 0.9, 3, "s1", instance=0, positions=2),
          coord("coord.propose", 1.0, 4, "s1", type="AppValue"),
          coord("coord.propose", 1.0, 5, "s2", type="AppValue"),
          coord("coord.decide", 1.4, 6, "s1", instance=1, positions=1)]
    n2 += [_deliver("n2", "r2", "s1", p, p, ts=skew + 1.5 + 0.1 * p)
           for p in (1, 2, 3)]
    paths = [str(tmp_path / f"{node}.trace.jsonl") for node in ("n1", "n2")]
    _write(paths[0], n1)
    _write(paths[1], n2)
    return paths


def test_a_merged_timeline_is_not_shifted_twice(tmp_path):
    from repro.obs.merge import merge_files

    paths = _skewed_run(tmp_path)
    merged = str(tmp_path / "merged.trace.jsonl")
    merge_files(paths, out=merged)
    views = {}
    for name, files in (("per-node", paths), ("merged", [merged])):
        watch = TraceWatch(paths=files)
        watch.drain()
        summary = watch.close()
        views[name] = (
            {s: state.last_decide_at
             for s, state in watch.certifier.streams.items()},
            summary["watermarks"],
            sorted((a["detector"], a["key"]) for a in summary["alerts"]),
        )
    decides, marks, alerts = views["per-node"]
    # n2's last decide is at 1.4 s on n1's clock, however it is read.
    assert decides["s1"] == pytest.approx(1.4)
    assert marks["s1"] == {"low": 3, "high": 3}
    assert alerts == [("quorum_stall", "s2")]
    assert views["merged"][0] == pytest.approx(decides)
    assert views["merged"][1:] == (marks, alerts)



def test_a_run_directory_is_read_in_time_order(tmp_path):
    # n2's clock runs 100 s ahead of n1's; its replica stops at position
    # 8 two seconds in while n1's goes on to 40.  Only events read in
    # aligned time order show the low watermark stuck at 8: read one
    # file after the other, the certifier meets n2's stop after n1's
    # whole run, when trace time no longer moves.
    from repro.obs.merge import merge_files

    skew = 100.0

    def clock(node, offset):
        return {"ts": offset, "seq": 0, "kind": "meta.clock", "cat": "meta",
                "node": node, "ref": "n1", "offset": offset}

    paths = [str(tmp_path / f"{node}.trace.jsonl") for node in ("n1", "n2")]
    _write(paths[0], [clock("n1", 0.0)] + [
        _deliver("n1", "r1", "s1", p, p, ts=0.25 * p) for p in range(1, 41)
    ])
    _write(paths[1], [clock("n2", skew)] + [
        _deliver("n2", "r2", "s1", p, p, ts=skew + 0.25 * p)
        for p in range(1, 9)
    ])
    merged = str(tmp_path / "merged.trace.jsonl")
    merge_files(paths, out=merged)
    alerts = {}
    for name, kwargs in (("directory", {"directory": str(tmp_path)}),
                         ("merged", {"paths": [merged]})):
        watch = TraceWatch(**kwargs)
        watch.drain()
        summary = watch.close()
        assert summary["ok"], name
        alerts[name] = sorted(
            (a["detector"], a["key"]) for a in summary["alerts"]
        )
    assert ("watermark_stall", "s1") in alerts["merged"]
    assert alerts["directory"] == alerts["merged"]

# -- the `repro watch` CLI ---------------------------------------------

def test_cli_watch_exit_codes(tmp_path, capsys):
    from repro.cli import main

    clean = tmp_path / "clean"
    clean.mkdir()
    _write(str(clean / "n1.trace.jsonl"),
           [_deliver("n1", "r1", "s1", p, p) for p in (1, 2)])
    assert main(["watch", str(clean), "--fail-on-alert"]) == 0
    out = capsys.readouterr().out
    assert "certified: no safety violations" in out

    bad = tmp_path / "bad"
    bad.mkdir()
    _write(str(bad / "n1.trace.jsonl"), [_deliver("n1", "r1", "s1", 1, 1)])
    _write(str(bad / "n2.trace.jsonl"), [_deliver("n2", "r2", "s1", 1, 9)])
    assert main(["watch", str(bad)]) == 1

    # --fail-on-alert turns a (safe) anomaly into exit code 2.
    stalled = tmp_path / "stalled"
    stalled.mkdir()
    _write(str(stalled / "n1.trace.jsonl"),
           [_deliver("n1", "r1", "s1", 1, 1, ts=0.0),
            _deliver("n1", "r2", "s1", 1, 1, ts=0.0)]
           + [_deliver("n1", "r1", "s1", p, p, ts=2.0 * p)
              for p in (2, 3)])
    assert main(["watch", str(stalled), "--stall-after", "1.0"]) == 0
    assert main(["watch", str(stalled), "--stall-after", "1.0",
                 "--fail-on-alert"]) == 2
    capsys.readouterr()


def test_cli_watch_single_trace_file_and_alert_log(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "n1.trace.jsonl"
    _write(str(trace), [_deliver("n1", "r1", "s1", p, p) for p in (1, 2)])
    log = tmp_path / "alerts.jsonl"
    assert main(["watch", str(trace), "--out", str(log)]) == 0
    assert validate_file(str(log)) >= 1
    assert main(["watch", str(tmp_path / "nope")]) == 2
    capsys.readouterr()
