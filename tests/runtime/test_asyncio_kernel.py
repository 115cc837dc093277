"""AsyncioKernel semantics: events, deferred calls, the failure list and
the kernel-generic capacity models, over a real event loop."""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.asyncio_kernel import AsyncioKernel
from repro.runtime.kernel import Kernel
from repro.runtime.resources import Server
from repro.storage.stable import StableStore


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10))


async def drain(kernel, seconds=0.0):
    """Let the loop run for a bit of wall time."""
    await asyncio.sleep(seconds if seconds > 0 else 0.01)


def test_kernel_satisfies_protocol():
    async def main():
        kernel = AsyncioKernel()
        assert isinstance(kernel, Kernel)
        for gone in ("process", "any_of", "all_of", "store"):
            assert not hasattr(kernel, gone)

    run(main())


def test_timeout_runs_its_callbacks_with_its_value():
    async def main():
        kernel = AsyncioKernel()
        got = []
        kernel.timeout(0.01, "tick").callbacks.append(
            lambda event: got.append(event.value)
        )
        await drain(kernel, 0.1)
        assert got == ["tick"]
        assert not kernel.failures

    run(main())


def test_event_succeed_and_fail():
    async def main():
        kernel = AsyncioKernel()
        results = []

        def defuse(event):
            event._defused = True
            results.append(("err", str(event.value)))

        good = kernel.event()
        bad = kernel.event()
        good.callbacks.append(lambda event: results.append(("ok", event.value)))
        bad.callbacks.append(defuse)
        good.succeed(7)
        bad.fail(RuntimeError("boom"))
        assert good.triggered and not good.processed
        await drain(kernel)
        assert sorted(results) == [("err", "boom"), ("ok", 7)]
        assert good.processed and good.callbacks is None
        assert not kernel.failures   # the failure was consumed
        with pytest.raises(RuntimeError):
            good.succeed()

    run(main())


def test_unconsumed_failure_is_collected():
    async def main():
        kernel = AsyncioKernel()
        reported = []
        kernel.on_failure = reported.append
        kernel.event().fail(ValueError("unhandled"))
        await drain(kernel)
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
        with pytest.raises(ValueError):
            kernel.timeout(-1)
        ran = []
        kernel.call_later(0.0, ran.append, "later")
        kernel.call_at(kernel.now + 0.01, ran.append, "at")
        await drain(kernel, 0.1)
        assert ran == ["later", "at"]

    run(main())


def test_server_and_stable_store_run_on_live_kernel():
    # The kernel-generic capacity models work unchanged over the
    # asyncio backend (structural typing, no sim import), their events
    # chained by callbacks.
    async def main():
        kernel = AsyncioKernel()
        server = Server(kernel, rate=1000.0, name="cpu")
        store = StableStore(kernel, write_latency=0.005)
        disk = StableStore(kernel, write_bandwidth=1e6, name="disk")
        done = []

        def written(_event):
            done.append("store")
            disk.write(64).callbacks.append(lambda _e: done.append("disk"))

        server.request(cost=1.0).callbacks.append(
            lambda _event: store.write(64).callbacks.append(written)
        )
        await drain(kernel, 0.1)
        assert done == ["store", "disk"]
        assert server.completed == 1
        assert (store.writes, disk.writes) == (1, 1)
        assert not kernel.failures

    run(main())
