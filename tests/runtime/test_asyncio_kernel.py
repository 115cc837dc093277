"""AsyncioKernel semantics: deferred calls, the failure list and the
kernel-generic capacity models, over a real event loop."""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.asyncio_kernel import AsyncioKernel, LiveStore
from repro.runtime.kernel import Envelope, Kernel
from repro.runtime.resources import Server
from repro.storage.stable import StableStore


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10))


async def until(predicate, timeout=5.0):
    """Let the loop run until ``predicate()`` holds (or ``timeout``
    wall seconds pass): a wait on the effect, not on the clock."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate() and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.01)   # the poll of a wait on the effect


def test_kernel_satisfies_protocol():
    async def main():
        kernel = AsyncioKernel()
        assert isinstance(kernel, Kernel)
        for gone in ("process", "any_of", "all_of", "store", "event", "timeout"):
            assert not hasattr(kernel, gone)

    run(main())


def test_timeout_runs_its_callbacks_with_its_value():
    async def main():
        kernel = AsyncioKernel()
        got = []
        kernel.call_later(0.01, got.append, "tick")
        await until(lambda: got)
        assert got == ["tick"]
        assert not kernel.failures

    run(main())


def test_unconsumed_failure_is_collected():
    async def main():
        kernel = AsyncioKernel()
        reported = []
        kernel.on_failure = reported.append
        inbox = LiveStore(kernel)

        def receive(payload, src):
            raise ValueError(payload)

        mailbox = inbox.consume(receive, "n1")
        inbox.put_nowait(Envelope("n2", "n1", "unhandled", 0, 0.0, 0.0))
        await until(lambda: not mailbox.is_alive)
        assert not mailbox.is_alive
        kernel.fail(KeyError("direct"))
        assert [type(f) for f in kernel.failures] == [ValueError, KeyError]
        assert reported == kernel.failures

    run(main())


def test_call_later_rejects_negative_delay():
    async def main():
        kernel = AsyncioKernel()
        with pytest.raises(ValueError):
            kernel.call_later(-1, lambda: None)
        with pytest.raises(ValueError):
            kernel.call_at(kernel.now - 1.0, lambda: None)
        ran = []
        kernel.call_later(0.0, ran.append, "later")
        kernel.call_at(kernel.now + 0.01, ran.append, "at")
        await until(lambda: len(ran) == 2)
        assert ran == ["later", "at"]

    run(main())


def test_server_and_stable_store_run_on_live_kernel():
    # The kernel-generic capacity models work unchanged over the
    # asyncio backend (structural typing, no sim import), chained by
    # their completion callbacks.
    async def main():
        kernel = AsyncioKernel()
        server = Server(kernel, rate=1000.0, name="cpu")
        store = StableStore(kernel, write_latency=0.005)
        disk = StableStore(kernel, write_bandwidth=1e6, name="disk")
        done = []

        def written():
            done.append("store")
            disk.write(64, done.append, "disk")

        server.request(1.0, store.write, 64, written)
        await until(lambda: len(done) == 2)
        assert done == ["store", "disk"]
        assert server.completed == 1
        assert (store.writes, disk.writes) == (1, 1)
        assert not kernel.failures

    run(main())


def test_bandwidth_and_latency_call_back_once_after_queue_plus_latency():
    async def main():
        kernel = AsyncioKernel()
        store = StableStore(kernel, write_latency=0.02, write_bandwidth=1e4)
        queued_at = kernel.now
        done = []
        store.write(50, lambda: done.append(kernel.now - queued_at))
        await until(lambda: done)
        # 5 ms on the device, then the 20 ms latency.
        assert len(done) == 1 and done[0] >= 0.025 - 1e-3

    run(main())
