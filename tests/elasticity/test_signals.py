"""Unit tests for the signal plane (repro.elasticity.signals).

The sim source is exercised end-to-end by the acceptance scenarios;
here we pin the live source's merge of the nodes' endpoints
(monkeypatched HTTP, no sockets).
"""

from __future__ import annotations

import asyncio

from repro.elasticity.signals import HttpSignalSource


def test_http_source_merges_node_endpoints(monkeypatch):
    """One snapshot merges every node: decide rates from the
    coordinators' counters, decide p99s, the provisioned streams and
    the subscription set every replica committed to."""
    def counters(total):
        return [{"actor": "S1/coordinator", "name": "values_decided",
                 "total": total}]

    payloads = {
        ("h1", 1, "/metrics.json"): {
            "counters": counters(100.0),
            "histograms": [{"actor": "S1/coordinator",
                            "name": "decide_latency_ms", "p99": 4.0}],
        },
        ("h1", 1, "/health"): {
            "streams": {"S1": {}},
            "replicas": {"r1": {"subscriptions": ["S1", "S2"]}},
        },
        ("h2", 2, "/metrics.json"): {"counters": [], "histograms": []},
        ("h2", 2, "/health"): {
            "streams": {"S2": {}},
            "replicas": {"r2": {"subscriptions": ["S1"],
                                "pending_subscription": True}},
        },
    }

    async def fake_get(host, port, path):
        return payloads[(host, port, path)]

    import repro.runtime.telemetry as telemetry
    monkeypatch.setattr(telemetry, "http_json", fake_get)

    now = iter((3.0, 5.0))
    source = HttpSignalSource(
        {"n1": ("h1", 1), "n2": ("h2", 2)}, clock=lambda: next(now)
    )
    snap = asyncio.run(source.sample())
    assert snap.at == 3.0
    assert snap.streams == ("S1",)
    assert snap.provisioned == ("S1", "S2")
    assert snap.pending_subscription
    assert snap.decide_p99_ms == {"S1": 4.0}
    assert snap.decide_rate == {}          # no previous sample yet

    payloads[("h1", 1, "/metrics.json")]["counters"] = counters(300.0)
    snap = asyncio.run(source.sample())
    assert snap.decide_rate == {"S1": 100.0}
