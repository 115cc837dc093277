"""Telemetry plane unit tests: Prometheus rendering, clock-offset
estimation, dump aggregation, and the per-node HTTP endpoint."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.runtime.telemetry import (
    NodeTelemetry,
    TelemetryServer,
    aggregate_dumps,
    estimate_offset,
    http_json,
    prometheus_text,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=15))


# -- prometheus_text ---------------------------------------------------

def _dump():
    return {
        "format": "repro-metrics/1",
        "counters": [
            {"actor": "r1", "name": "delivered", "total": 42},
        ],
        "gauges": [
            {"actor": "r1", "name": "inbox_depth", "last": 3, "peak": 9},
            {"actor": "r2", "name": "inbox_depth", "last": None, "peak": None},
        ],
        "histograms": [
            {"actor": "client", "name": "latency_ms", "n": 10,
             "mean": 2.5, "p50": 2.0, "p95": 4.0, "p99": 5.0},
            {"actor": "client", "name": "empty_ms", "n": 0,
             "mean": None, "p50": None, "p95": None, "p99": None},
        ],
    }


def test_prometheus_text_renders_all_instrument_kinds():
    text = prometheus_text(_dump(), node="n1")
    assert 'repro_delivered_total{actor="r1",node="n1"} 42' in text
    assert 'repro_inbox_depth{actor="r1",node="n1"} 3' in text
    assert 'repro_inbox_depth_peak{actor="r1",node="n1"} 9' in text
    assert 'repro_latency_ms_count{actor="client",node="n1"} 10' in text
    assert 'quantile="0.99"' in text
    assert text.endswith("\n")


def test_prometheus_text_skips_sampleless_instruments():
    text = prometheus_text(_dump())
    # The never-sampled gauge has no value to expose...
    assert "r2" not in text
    # ...and the empty histogram exposes only its zero count.
    assert 'repro_empty_ms_count{actor="client"} 0' in text
    assert "repro_empty_ms_mean" not in text


def test_prometheus_text_sanitizes_names_and_labels():
    dump = {
        "counters": [{"actor": 'we"ird\\', "name": "latency-ms.total",
                      "total": 1}],
        "gauges": [], "histograms": [],
    }
    text = prometheus_text(dump)
    assert "repro_latency_ms_total_total" in text
    assert '\\"' in text


# -- estimate_offset ---------------------------------------------------

def test_estimate_offset_picks_minimum_rtt_sample():
    samples = [
        (0.0, 107.0, 4.0),      # rtt 4, offset 105
        (10.0, 112.05, 10.1),   # rtt 0.1, offset 102.0 (the keeper)
        (20.0, 126.0, 22.0),    # rtt 2, offset 105
    ]
    offset, rtt = estimate_offset(samples)
    assert rtt == pytest.approx(0.1)
    assert offset == pytest.approx(102.0)


def test_estimate_offset_rejects_empty():
    with pytest.raises(ValueError):
        estimate_offset([])


# -- aggregate_dumps ---------------------------------------------------

def test_aggregate_dumps_prefixes_actor_with_node():
    merged = aggregate_dumps({"n2": _dump(), "n1": _dump()})
    assert merged["format"] == "repro-metrics/1"
    actors = [entry["actor"] for entry in merged["counters"]]
    assert actors == ["n1/r1", "n2/r1"]
    assert len(merged["histograms"]) == 4
    # Still a valid dump: the CLI's rows_from_dump can render it.
    from repro.obs.metrics import rows_from_dump
    assert any(row[0] == "n1/client" for row in rows_from_dump(merged))


# -- TelemetryServer / http_json ---------------------------------------

def test_server_routes_and_errors():
    async def main():
        calls = {"n": 0}

        def ok():
            calls["n"] += 1
            return "application/json", json.dumps({"hello": "world"})

        def boom():
            raise RuntimeError("kaput")

        server = TelemetryServer({"/ok": ok, "/boom": boom})
        host, port = await server.start()
        assert await http_json(host, port, "/ok") == {"hello": "world"}
        assert await http_json(host, port, "/ok?x=1") == {"hello": "world"}
        with pytest.raises(RuntimeError):
            await http_json(host, port, "/missing")     # 404
        with pytest.raises(RuntimeError):
            await http_json(host, port, "/boom")        # 500
        assert calls["n"] == 2
        assert server.requests_served >= 2
        await server.stop()

    run(main())


def test_node_telemetry_serves_alerts_and_health_score(tmp_path):
    """The self-observing watchdog: /health rolls in health_score and
    active alerts, /alerts serves the watchdog alone, and an anomalous
    snapshot (send queue near capacity) raises a real alert."""
    async def main():
        from repro.runtime.asyncio_kernel import AsyncioKernel

        telemetry = NodeTelemetry(
            "n1", trace_path=str(tmp_path / "n1.trace.jsonl")
        )
        kernel = AsyncioKernel(
            tracer=telemetry.tracer, metrics=telemetry.registry
        )
        snapshot = {
            "node": "n1", "now": 1.0, "streams": {}, "replicas": {},
            "transport": {"queue_depths": {}, "queue_capacity": 1024},
        }
        telemetry.bind(kernel, lambda: dict(snapshot))
        host, port = await telemetry.start_server()

        health = await http_json(host, port, "/health")
        assert health["health_score"] == 100 and health["alerts"] == []
        alerts = await http_json(host, port, "/alerts")
        assert alerts == {"node": "n1", "health_score": 100,
                          "active": [], "raised_total": 0}

        # A send queue near capacity is an anomaly the node sees in
        # its own snapshot on the next scrape.
        snapshot["transport"]["queue_depths"] = {"peer": 1000}
        health = await http_json(host, port, "/health")
        assert health["health_score"] < 100
        assert [a["detector"] for a in health["alerts"]] == [
            "backpressure"
        ]
        alerts = await http_json(host, port, "/alerts")
        assert alerts["raised_total"] == 1

        # Recovery clears it: scores return to clean.
        snapshot["transport"]["queue_depths"] = {"peer": 0}
        health = await http_json(host, port, "/health")
        assert health["health_score"] == 100 and health["alerts"] == []

        await telemetry.stop()
        # The raise/clear transitions landed in the node's own trace.
        kinds = [json.loads(line)["kind"]
                 for line in open(tmp_path / "n1.trace.jsonl")]
        assert "alert.raise" in kinds and "alert.clear" in kinds

    run(main())


def test_node_telemetry_serves_metrics_health_clock(tmp_path):
    async def main():
        from repro.runtime.asyncio_kernel import AsyncioKernel

        trace_path = str(tmp_path / "n1.trace.jsonl")
        telemetry = NodeTelemetry("n1", trace_path=trace_path)
        kernel = AsyncioKernel(
            tracer=telemetry.tracer, metrics=telemetry.registry,
            clock_offset=3.0,
        )
        telemetry.bind(kernel, lambda: {"node": "n1", "streams": {}})
        telemetry.registry.counter("r1", "delivered").record(5)
        host, port = await telemetry.start_server()

        health = await http_json(host, port, "/health")
        assert health["node"] == "n1"
        dump = await http_json(host, port, "/metrics.json")
        assert dump["format"] == "repro-metrics/1"
        assert dump["counters"][0]["total"] == 5
        # No /clock route: clock sync reads the node clock through the
        # run driver's ``clock`` op, not over HTTP (test_driver.py).
        with pytest.raises(RuntimeError, match="404"):
            await http_json(host, port, "/clock")

        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        assert b"200 OK" in raw
        assert b'repro_delivered_total{actor="r1",node="n1"} 5' in raw

        await telemetry.stop()
        # The JSONL sink was flushed on stop; header is the meta.node
        # event stamped with the node id.
        with open(trace_path) as handle:
            first = json.loads(handle.readline())
        assert first["kind"] == "meta.node"
        assert first["node"] == "n1"
        assert first["clock"] == "wall"

    run(main())
