"""The control plane: a node endpoint's op route (``POST /op/<name>``).

A deploy worker serves its op table on the HTTP listener that also
serves its telemetry; the run driver reaches it through the one client,
:func:`repro.runtime.telemetry.http_json`, and every failure is an
:class:`~repro.runtime.telemetry.EndpointError`.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.deploy.chaos import SCENARIOS
from repro.deploy.worker import DeployWorker
from repro.runtime.telemetry import (
    MAX_BODY,
    EndpointError,
    TelemetryServer,
    http_json,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10))


def _health():
    return "application/json", json.dumps({"node": "n1"})


async def _serve(ops: dict) -> TelemetryServer:
    server = TelemetryServer({"/health": _health}, ops=ops.get)
    await server.start()
    return server


async def _call(server: TelemetryServer, op: str, timeout: float = 2.0,
                **params):
    return await http_json(*server.address, f"/op/{op}", params, timeout)


def test_round_trip_and_sequential_requests():
    async def main():
        seen = []

        def ping(value):
            seen.append(value)
            return {"echo": value, "n": len(seen)}

        server = await _serve({"ping": ping})
        assert await _call(server, "ping", value="x") == {"echo": "x", "n": 1}
        assert await _call(server, "ping", value="y") == {"echo": "y", "n": 2}
        assert seen == ["x", "y"]
        assert server.requests_served == 2
        await server.stop()

    run(main())


def test_handler_exception_surfaces_as_endpoint_error():
    async def main():
        def boom():
            raise ValueError("that op is broken")

        server = await _serve({"boom": boom, "fine": dict})
        with pytest.raises(EndpointError, match="that op is broken"):
            await _call(server, "boom")
        # The listener survives a failed op: the next one works.
        assert await _call(server, "fine") == {}
        await server.stop()

    run(main())


def test_call_without_connection_raises():
    # Nothing listens there (a worker not up yet, or gone): the call
    # raises the typed error at once.
    async def main():
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        host, port = probe.sockets[0].getsockname()[:2]
        probe.close()
        await probe.wait_closed()
        with pytest.raises(EndpointError):
            await http_json(host, port, "/op/ping", {})

    run(main())


def test_peer_close_surfaces_as_endpoint_error():
    # The kill -9 case: the worker's end of the connection vanishes;
    # the supervisor's call must raise, not hang -- nor wait past its
    # timeout on a peer that never answers.
    async def main():
        async def immediate_close(reader, writer):
            writer.close()

        async def silent(reader, writer):
            await reader.read()         # until the caller gives up

        for handler in (immediate_close, silent):
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            with pytest.raises(EndpointError):
                await http_json(host, port, "/op/ping", {}, timeout=0.5)
            server.close()

    run(main())


def test_concurrent_calls_each_get_their_own_answer():
    async def main():
        server = await _serve({"op": lambda value: {"value": value}})
        results = await asyncio.gather(
            *(_call(server, "op", value=i) for i in range(5))
        )
        assert [r["value"] for r in results] == [0, 1, 2, 3, 4]
        await server.stop()

    run(main())


async def _raw(address, request: bytes) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(*address)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def _post(path: str, body: bytes, length=None) -> bytes:
    """A raw op request; ``length`` overrides the body's (``""``: no
    ``Content-Length`` header at all)."""
    length = len(body) if length is None else length
    header = f"Content-Length: {length}\r\n" if length != "" else ""
    return f"POST {path} HTTP/1.0\r\n{header}\r\n".encode() + body


@pytest.mark.parametrize("request_bytes, status", [
    (_post("/op/ping", b"{not json"), 400),
    (_post("/op/ping", b"[1, 2]"), 400),
    (_post("/op/nope", b"{}"), 404),
    (_post("/op/ping", b"{}", length=""), 411),
    (_post("/op/ping", b"", length=MAX_BODY + 1), 413),
], ids=["bad-json", "not-an-object", "unknown-op", "no-length", "too-big"])
def test_a_malformed_op_request_gets_a_4xx(request_bytes, status):
    async def main():
        server = await _serve({"ping": lambda: {"pong": True}})
        answer, body = await _raw(server.address, request_bytes)
        assert answer == status, body
        # The listener keeps serving, ops and scrapes alike.
        assert await _call(server, "ping") == {"pong": True}
        assert await http_json(*server.address, "/health") == {"node": "n1"}
        await server.stop()

    run(main())


def test_a_worker_bound_on_all_interfaces_serves_ops_and_health_at_one_address(
    tmp_path,
):
    # On another host the run driver reaches a worker at its
    # --control-host/--control-port; its telemetry must be there too.
    spec = SCENARIOS["baseline"].topology(
        nodes=3, streams=2, replicas=3, duration=1.0, rate=50.0, burst=1
    )

    async def main():
        worker = DeployWorker(spec, "n1", str(tmp_path),
                              control_host="0.0.0.0",
                              transport_host="0.0.0.0")
        ready = str(tmp_path / "n1.ready.json")
        task = asyncio.ensure_future(worker.run(ready_file=ready))
        while not os.path.exists(ready) and not task.done():
            await asyncio.sleep(0.01)   # the poll of a wait on the effect
        with open(ready) as fh:
            host, port = json.load(fh)["control"]
        assert host == "0.0.0.0"
        health = await http_json("127.0.0.1", port, "/health")
        hello = await http_json("127.0.0.1", port, "/op/hello", {})
        assert health["node"] == hello["node"] == "n1"
        assert hello["telemetry"] == [host, port]
        await http_json("127.0.0.1", port, "/op/stop", {})
        await task

    run(main())
