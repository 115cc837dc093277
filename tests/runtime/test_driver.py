"""The run driver (``repro.runtime.driver``) over stub handles and over
the in-process reach.

The driver knows a cluster only as ``{node name -> handle}``; a handle
is anything with ``await handle.call(op, **params)``.  The stub below is
a third reach -- no node, no process -- which is what lets the verdict
be pinned without staging a real kernel failure or a lost subscribe.
The same baseline scenario through real worker processes is in
``tests/deploy/test_process_smoke.py``; both assert
:data:`VERDICT_FIELDS`.
"""

from __future__ import annotations

import asyncio

from repro.deploy.chaos import SCENARIOS
from repro.deploy.topology import build_topology
from repro.faults.schedule import ControlOp, Schedule
from repro.runtime.driver import Agreement, RunDriver, agree, verdict
from repro.runtime.supervisor import LiveCluster, LiveConfig

VERDICT_FIELDS = {
    "ok", "detail", "agreement", "subscribes", "violations",
    "kernel_failures", "flight_dumps",
}


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


class StubNode:
    """A handle that answers from canned state and records the calls."""

    def __init__(self, name, replicas=(), now=0.0):
        self.name = name
        self.replicas = {r: {"subscriptions": ["s1"]} for r in replicas}
        self.now = now
        self.learns_subscribes = True
        self.learns_unsubscribes = True
        self.kernel_failures: list[str] = []
        self.transport: dict[str, int] = {}
        self.sequence = [["s1", 1, 11], ["s1", 2, 12]]
        self.calls: list[tuple] = []
        self.marks: list[dict] = []
        self.active: list[str] = ["s1"]     # the client's rotation

    async def call(self, op, timeout=10.0, **params):
        self.calls.append((op, params))
        return getattr(self, f"op_{op}")(**params)

    def op_hello(self):
        return {"trace_node": self.name, "hosts": list(self.replicas),
                "transport": ["127.0.0.1", 7000 + int(self.name[1:])]}

    def op_register(self, addresses):
        self.addresses = addresses
        return {}

    def op_clock(self):
        return {"now": self.now}

    def op_clock_mark(self, **mark):
        self.marks.append(mark)
        return {}

    def op_start(self):
        return {"already": False}

    def op_workload(self, rate_end=None):
        return {}

    def op_subscribe(self, stream, via, group):
        for peer in self.peers:
            if peer.learns_subscribes:
                for state in peer.replicas.values():
                    state["subscriptions"].append(stream)
        return {"request_id": 1}

    def op_unsubscribe(self, stream, via, group):
        for peer in self.peers:
            if peer.learns_unsubscribes:
                for state in peer.replicas.values():
                    state["subscriptions"].remove(stream)
        return {"request_id": 2}

    def op_activate(self, streams):
        self.active = streams
        return {}

    def op_check(self):
        return {}

    def op_status(self):
        return {
            "submitted": 2, "workload_done": True,
            "active_streams": list(self.active),
            "replicas": {
                name: {**state, "pending_subscription": False}
                for name, state in self.replicas.items()
            },
            "violations": [], "kernel_failures": self.kernel_failures,
            "transport": self.transport,
        }

    def op_sequences(self):
        return {"sequences": {name: self.sequence for name in self.replicas}}

    def op_metrics(self):
        return {"dump": None, "latency_p50_ms": 1.0, "latency_p99_ms": 2.0}

    def op_flight_dump(self, label):
        return {"path": f"/dumps/{self.name}.flight.jsonl", "events": 0}


def _stub_cluster(drain_timeout=0.2):
    spec = build_topology(
        nodes=2, streams=2, replicas=2, duration=0.05,
        workload={"drain_timeout": drain_timeout},
    )
    nodes = {
        "n1": StubNode("n1", replicas=["g1/r1"], now=10.0),
        "n2": StubNode("n2", replicas=["g1/r2"], now=10.25),
    }
    for node in nodes.values():
        node.peers = list(nodes.values())
    return RunDriver(spec, dict(nodes)), nodes


async def _baseline(driver):
    await driver.play(*SCENARIOS["baseline"].build(driver.spec))
    return await driver.collect(await driver.drain())


async def _stub_baseline(driver):
    await driver.wire()
    return await _baseline(driver)


def test_clean_stub_run_passes_and_is_wired_once_through_ops():
    driver, nodes = _stub_cluster()
    outcome = run(_stub_baseline(driver))
    assert outcome.ok, outcome.detail
    assert set(outcome.to_json()) == VERDICT_FIELDS
    assert outcome.subscribes == {"requested": ["s2"], "committed": ["s2"]}
    assert outcome.flight_dumps == []           # a clean run leaves none
    assert outcome.latency_ms == {"p50": 1.0, "p99": 2.0}
    # Wiring: every node got the whole address map, then its clock mark
    # against the client's node, then start -- in that order.
    for node in nodes.values():
        ops = [op for op, _ in node.calls]
        assert ops.index("register") < ops.index("clock_mark") < ops.index("start")
        assert node.addresses == {"g1/r1": ["127.0.0.1", 7001],
                                  "g1/r2": ["127.0.0.1", 7002]}
    assert nodes["n1"].marks == [{"ref": "n1", "offset": 0.0, "rtt": 0.0}]
    assert nodes["n2"].marks == [{"ref": "n1", "offset": 0.25, "rtt": 0.0}]
    assert driver.clock_offsets == {"n1": 0.0, "n2": 0.25}
    # The client took s2 into its rotation once the subscribe committed.
    assert nodes["n1"].active == ["s1", "s2"]


def test_a_kernel_failure_on_any_node_fails_the_run():
    driver, nodes = _stub_cluster()
    nodes["n2"].kernel_failures = ["ValueError('handler blew up')"]
    outcome = run(_stub_baseline(driver))
    assert outcome.agreement.ok                 # the replicas do agree
    assert outcome.ok is False
    assert outcome.kernel_failures == {
        "n2": ["ValueError('handler blew up')"]
    }
    assert "kernel failures on ['n2']" in outcome.detail
    # Only a failed run asks the nodes for their causal rings.
    assert sorted(outcome.flight_dumps) == [
        "/dumps/n1.flight.jsonl", "/dumps/n2.flight.jsonl",
    ]


def test_what_the_clients_node_dropped_at_its_send_queue_is_reported():
    # Nobody retransmits a submission the client's own transport
    # refused, so the run says so -- next to the verdict, not in it, and
    # only the client's node (a dropped Decision is repaired).
    from repro.runtime.supervisor import LiveReport

    driver, nodes = _stub_cluster()
    nodes["n1"].transport = {"dropped_backpressure": 7}
    nodes["n2"].transport = {"dropped_backpressure": 3}
    outcome = run(_stub_baseline(driver))
    assert outcome.ok
    assert outcome.client_dropped_backpressure == 7
    assert outcome.to_json()["client_dropped_backpressure"] == 7
    report = LiveReport(
        streams=1, replicas=2, duration=1.0, submitted=2,
        delivered_per_replica={"r1": 2, "r2": 2}, sequences_identical=True,
        subscribes_completed=0, subscribes_requested=0,
        violations=[], kernel_failures=[], throughput=2.0,
        latency_p50_ms=None, latency_p99_ms=None,
    )
    assert "DROPPED" not in report.summary()
    report.client_dropped_backpressure = outcome.client_dropped_backpressure
    assert report.summary().endswith(
        "client node DROPPED 7 at its send queue"
    )


def test_a_subscribe_that_never_commits_fails_the_run():
    driver, nodes = _stub_cluster()
    nodes["n2"].learns_subscribes = False       # r2 never lists s2
    outcome = run(_stub_baseline(driver))
    assert outcome.agreement.ok
    assert outcome.ok is False
    assert outcome.subscribes == {"requested": ["s2"], "committed": []}
    assert "0/1 subscribes committed" in outcome.detail
    # ... and the client was never pointed at the stream.
    assert nodes["n1"].active == ["s1"]
    assert "activate" not in [op for op, _ in nodes["n1"].calls]


def test_an_unsubscribe_that_never_takes_effect_fails_the_run():
    driver, nodes = _stub_cluster()
    nodes["n2"].learns_unsubscribes = False     # r2 keeps listing s1
    retire = (
        ControlOp(0.0, "subscribe", "g1", "s2", via="s1"),
        ControlOp(0.0, "unsubscribe", "g1", "s1", via="s2"),
    )

    async def main():
        await driver.wire()
        timeline = await driver.play(Schedule("retire"), retire)
        return timeline, await driver.collect(await driver.drain())

    timeline, outcome = run(main())
    assert [(step["op"], step["committed"]) for step in timeline] == [
        ("subscribe", True), ("unsubscribe", False),
    ]
    assert outcome.agreement.ok
    assert outcome.ok is False
    assert outcome.subscribes == {"requested": ["s2", "-s1"],
                                  "committed": ["s2"]}
    assert "1/2 subscribes committed" in outcome.detail
    # The stream left the client's rotation before the request was sent.
    assert nodes["n1"].active == ["s2"]


def test_drain_stops_at_the_first_kernel_failure():
    # Agreement that has not come yet is no reason to wait once the
    # verdict has failed: one poll of the sequences, not the timeout's.
    driver, nodes = _stub_cluster(drain_timeout=30.0)
    nodes["n2"].sequence = [["s1", 1, 11]]          # behind r1
    nodes["n2"].kernel_failures = ["RuntimeError('trimmed past')"]
    agreement = run(driver.drain())
    assert not agreement
    polls = [op for op, _ in nodes["n1"].calls if op == "sequences"]
    assert polls == ["sequences"]


def test_divergence_is_reported_with_its_index():
    driver, nodes = _stub_cluster(drain_timeout=0.0)
    nodes["n2"].sequence = [["s1", 1, 11], ["s1", 2, 99], ["s1", 3, 13]]
    agreement = run(driver.drain())
    assert not agreement
    assert agreement.detail == (
        "g1/r2 diverges from g1/r1 at index 1 (3 vs 2 values)"
    )
    assert not agree({}) and not agree({"r1": [], "r2": []})
    assert agree({"r1": [("s1", 1, 11)], "r2": [("s1", 1, 11)]})


def test_verdict_is_a_conjunction_and_names_every_reason():
    agreed = Agreement(True, "3 replicas agree on 5 deliveries")
    assert verdict(agreed, 1, 1, {}, {}) == (True, agreed.detail)
    assert verdict(agreed, 1, 1, {}, {}, audit={"ok": True})[0]
    ok, detail = verdict(
        Agreement(False, "r2 delivered nothing"), 2, 1,
        {"n1": ["dup"]}, {"n3": ["boom"]},
        audit={"ok": False, "violations": [1, 2]},
    )
    assert ok is False
    for reason in ("r2 delivered nothing", "1/2 subscribes committed",
                   "invariant violations on ['n1']",
                   "kernel failures on ['n3']", "online audit proved 2"):
        assert reason in detail
    # Each clause alone is enough.
    assert not verdict(agreed, 1, 0, {}, {})[0]
    assert not verdict(agreed, 0, 0, {"n1": ["x"]}, {})[0]
    assert not verdict(agreed, 0, 0, {}, {"n1": ["x"]})[0]
    assert not verdict(agreed, 0, 0, {}, {}, audit={"ok": False,
                                                   "violations": []})[0]


def test_baseline_through_the_in_loop_reach_returns_the_verdict_fields():
    """The conformance scenario, in-process: workload + one runtime
    subscribe over two nodes' op tables called directly."""

    async def main():
        cluster = LiveCluster(LiveConfig(
            nodes=2, streams=2, replicas=3, duration=1.0, rate=100.0,
            drain_timeout=20.0,
        ))
        try:
            await cluster.start()
            return await _baseline(cluster.driver)
        finally:
            await cluster.stop()

    outcome = run(main())
    if not outcome.ok:
        outcome = run(main())       # retry once: CI wall clocks are noisy
    assert outcome.ok, outcome.detail
    verdict_json = outcome.to_json()
    assert set(verdict_json) == VERDICT_FIELDS
    assert verdict_json["agreement"]["ok"] is True
    assert verdict_json["subscribes"] == {
        "requested": ["s2"], "committed": ["s2"],
    }
    assert verdict_json["violations"] == {}
    assert verdict_json["kernel_failures"] == {}
    assert verdict_json["flight_dumps"] == []
    assert sorted(outcome.statuses) == ["n1", "n2"]
    assert outcome.statuses["n1"]["submitted"] > 0


def test_a_crashed_workload_fails_the_run_instead_of_ending_it():
    # The workload is a task inside the node's op table; the driver only
    # polls ``workload_done``.  An exception in it must reach the caller
    # (as it did when run_live awaited the task itself).
    async def main():
        cluster = LiveCluster(LiveConfig(streams=1, replicas=1, duration=5.0))
        try:
            await cluster.start()

            def explode(stream, payload, size):
                raise RuntimeError("client fell over")

            cluster.client_node.multicast = explode
            await cluster.driver.start_workload()
            try:
                await cluster.driver.wait_workload(timeout=5.0)
            except RuntimeError as exc:
                return str(exc)
        finally:
            await cluster.stop()

    assert run(main()) == "client fell over"
