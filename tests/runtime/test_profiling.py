"""Profiling-plane unit tests: the stack sampler, the event-loop-lag
probe, and the telemetry ``/profile`` routes."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.runtime.profiling import LoopLagProbe, StackSampler


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=15))


def _busy_wait(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(range(100))


# -- StackSampler ------------------------------------------------------

def test_sampler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StackSampler(interval=0.0)
    with pytest.raises(ValueError):
        StackSampler(depth=0)


def test_sampler_captures_all_threads_tagged_by_name():
    stop = threading.Event()
    worker = threading.Thread(
        target=_busy_wait, args=(stop,), name="busy-worker", daemon=True
    )
    worker.start()
    sampler = StackSampler(interval=0.002)
    try:
        sampler.start()
        assert sampler.running
        deadline = time.monotonic() + 5.0
        while sampler.total < 10 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        stop.set()
        total = sampler.stop()
        worker.join()
    assert not sampler.running
    assert total >= 10
    names = {thread for thread, _ in sampler.samples}
    # The worker *and* the main thread were sampled; the sampler's own
    # thread never samples itself.
    assert "busy-worker" in names
    assert "MainThread" in names
    assert "repro-profiler" not in names
    (worker_stack,) = [
        frames for (thread, frames) in sampler.samples
        if thread == "busy-worker" and "test_profiling.py:_busy_wait"
        in frames
    ][:1]
    # Frames are root-first, so the thread bootstrap is at the front.
    assert worker_stack[0].startswith("threading.py:")


def test_sampler_collapsed_format_and_write(tmp_path):
    sampler = StackSampler()
    sampler.samples[("w", ("a.py:f", "b.py:g"))] = 3
    sampler.samples[("w", ("a.py:f",))] = 5
    text = sampler.collapsed()
    assert text == "w;a.py:f 5\nw;a.py:f;b.py:g 3\n"
    path = tmp_path / "stacks.txt"
    assert sampler.write_collapsed(str(path)) == 2
    assert path.read_text() == text


def test_sampler_sample_once_respects_depth():
    sampler = StackSampler(depth=2)
    stop = threading.Event()
    worker = threading.Thread(
        target=_busy_wait, args=(stop,), name="depth-worker", daemon=True
    )
    worker.start()
    try:
        sampler.sample_once()
    finally:
        stop.set()
        worker.join()
    assert sampler.total >= 1
    assert all(len(frames) <= 2 for _, frames in sampler.samples)


def test_sampler_start_is_idempotent():
    sampler = StackSampler(interval=0.05)
    sampler.start()
    thread = sampler._thread
    sampler.start()
    assert sampler._thread is thread
    sampler.stop()
    assert sampler.stop() == sampler.total   # idempotent


# -- LoopLagProbe ------------------------------------------------------

def test_loop_lag_probe_records_windowed_histogram():
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.asyncio_kernel import AsyncioKernel

    async def main():
        registry = MetricsRegistry()
        kernel = AsyncioKernel(metrics=registry)
        probe = LoopLagProbe(kernel, registry, actor="n1", interval=0.01)
        probe.start()
        probe.start()            # idempotent
        await asyncio.sleep(0.15)
        probe.stop()
        ticks = probe.ticks
        await asyncio.sleep(0.05)
        assert probe.ticks == ticks   # stopped probes stop re-arming
        return registry.dump()

    dump = run(main())
    (entry,) = [
        h for h in dump["histograms"] if h["name"] == LoopLagProbe.METRIC
    ]
    assert entry["actor"] == "n1"
    assert entry["n"] >= 3
    assert entry["p50"] is not None and entry["p50"] >= 0.0


def test_loop_lag_probe_rejects_bad_interval():
    from repro.obs.metrics import MetricsRegistry

    with pytest.raises(ValueError):
        LoopLagProbe(None, MetricsRegistry(), interval=0.0)


# -- telemetry /profile routes -----------------------------------------

def test_telemetry_profile_routes_and_stop_writes_stacks(tmp_path):
    import json

    from repro.runtime.asyncio_kernel import AsyncioKernel
    from repro.runtime.telemetry import NodeTelemetry, http_get_json

    async def main():
        telemetry = NodeTelemetry("n1", profile_interval=0.002)
        kernel = AsyncioKernel(
            tracer=telemetry.tracer, metrics=telemetry.registry
        )
        telemetry.bind(kernel, lambda: {"node": "n1"})
        telemetry.profile_path = str(tmp_path / "n1.stacks.txt")
        host, port = await telemetry.start_server()

        status = await http_get_json(host, port, "/profile/start")
        assert status["node"] == "n1" and status["running"]
        deadline = asyncio.get_running_loop().time() + 5.0
        while (telemetry.profiler.total < 3
               and asyncio.get_running_loop().time() < deadline):
            await asyncio.sleep(0.01)

        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /profile HTTP/1.0\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        assert b"200 OK" in raw
        assert b"MainThread;" in raw

        status = await http_get_json(host, port, "/profile/stop")
        assert not status["running"]
        assert status["samples"] >= 3
        await telemetry.stop()

    run(main())
    stacks = (tmp_path / "n1.stacks.txt").read_text()
    assert "MainThread;" in stacks
    assert stacks.splitlines()[0].rsplit(" ", 1)[1].isdigit()
