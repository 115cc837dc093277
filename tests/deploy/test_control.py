"""Control RPC: framing, dispatch, error surfacing."""

from __future__ import annotations

import asyncio

import pytest

from repro.deploy.control import ControlClient, ControlError, ControlServer


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10))


def test_round_trip_and_sequential_requests():
    async def main():
        seen = []

        async def handler(request):
            seen.append(request["op"])
            return {"echo": request.get("value"), "n": len(seen)}

        server = ControlServer(handler)
        host, port = await server.start()
        client = ControlClient(host, port)
        await client.connect()
        first = await client.call("ping", value="x")
        second = await client.call("ping", value="y")
        assert first == {"ok": True, "echo": "x", "n": 1}
        assert second == {"ok": True, "echo": "y", "n": 2}
        assert seen == ["ping", "ping"]
        assert server.requests_served == 2
        await client.close()
        await server.stop()

    run(main())


def test_handler_exception_surfaces_as_control_error():
    async def main():
        async def handler(request):
            if request["op"] == "boom":
                raise ValueError("that op is broken")
            return {}

        server = ControlServer(handler)
        host, port = await server.start()
        client = ControlClient(host, port)
        await client.connect()
        with pytest.raises(ControlError, match="that op is broken"):
            await client.call("boom")
        # The connection survives a failed op: the next one works.
        assert (await client.call("fine"))["ok"] is True
        await client.close()
        await server.stop()

    run(main())


def test_call_without_connection_raises():
    async def main():
        client = ControlClient("127.0.0.1", 1)
        with pytest.raises(ControlError, match="not connected"):
            await client.call("ping")

    run(main())


def test_peer_close_surfaces_as_control_error():
    # The kill -9 case: the worker's end of the control connection
    # vanishes; the supervisor's call must raise, not hang.
    async def main():
        async def immediate_close(reader, writer):
            writer.close()

        server = await asyncio.start_server(
            immediate_close, "127.0.0.1", 0
        )
        host, port = server.sockets[0].getsockname()[:2]
        client = ControlClient(host, port)
        await client.connect()
        with pytest.raises(ControlError):
            await client.call("ping", timeout=2.0)
        await client.close()
        server.close()
        await server.wait_closed()

    run(main())


def test_concurrent_calls_serialize_on_one_connection():
    async def main():
        async def handler(request):
            await asyncio.sleep(0.02)   # simulated work, not a wait
            return {"value": request["value"]}

        server = ControlServer(handler)
        host, port = await server.start()
        client = ControlClient(host, port)
        await client.connect()
        results = await asyncio.gather(
            *(client.call("op", value=i) for i in range(5))
        )
        assert sorted(r["value"] for r in results) == [0, 1, 2, 3, 4]
        await client.close()
        await server.stop()

    run(main())
