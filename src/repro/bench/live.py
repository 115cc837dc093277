"""Live-backend benchmarks (``python -m repro bench --live``).

The sim hot paths have been regression-gated since PR 3; this module
does the same for the *live* asyncio/TCP datapath (codec -> transport
-> coordinator batching -> delivery).  Three benchmarks:

``codec_roundtrip``
    Encode+decode of the two hot wire shapes -- a client ``Propose``
    carrying one ``AppValue`` and a ``RingAccept`` carrying a full
    batch -- in a tight loop.  Pure CPU: no sockets.

``transport_stream``
    One :class:`~repro.runtime.transport.TcpTransport`, one sender host
    streaming ``Propose`` frames to a receiving actor over a real
    localhost socket.  Measures the framed send path end to end
    (encode, queue, writer task, TCP, decode, dispatch) and reports the
    coalescing counters, so the frames-per-flush win is visible in the
    JSON.

``live_cluster``
    A full single-stream cluster (coordinator, acceptor ring, two
    replicas) under a fixed open-loop offered load, measured over a
    steady-state window after a warm-up.  The headline metric is
    *delivered values per second at the slowest replica* -- the number
    the ISSUE's >=1.5x acceptance criterion is judged on -- plus
    delivery latency p50/p99 and the replica-agreement verdict.

Wall-clock numbers vary with the machine (and live runs are not
deterministic -- see ``docs/RUNTIME.md``); the committed
``BENCH_PR8.json`` plus the CI ``live-perf-smoke`` job gate regressions
the same way ``BENCH_baseline.json`` gates the sim suite.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

__all__ = [
    "LIVE_BENCH_SCHEMA_VERSION",
    "PRE_PR_LIVE",
    "bench_codec_roundtrip",
    "bench_live_cluster",
    "bench_transport_stream",
    "compare_live_to_baseline",
    "install_uvloop",
    "live_summary_lines",
    "run_live_bench",
]


def install_uvloop() -> bool:
    """Install uvloop's event-loop policy if the package is present.

    uvloop is a *soft* dependency -- never assumed installed.  Returns
    True when the policy was installed; False leaves the stdlib policy
    untouched so the suite still runs everywhere.
    """
    try:
        import uvloop
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True

LIVE_BENCH_SCHEMA_VERSION = 1

# Quick-configuration numbers measured on the pre-overhaul tree (the
# commit before this PR: per-message encode allocations, one
# write()+drain() per frame, body-copying decode, fixed batch=16).
# Machine-specific, recorded for provenance; the >=1.5x live_cluster
# criterion of ISSUE 8 is judged against values_per_s.
PRE_PR_LIVE = {
    "codec_roundtrip": {"roundtrips_per_s": 15639.0},
    "transport_stream": {"frames_per_s": 40660.0},
    "live_cluster": {"values_per_s": 3234.0},
}


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


# -- codec: the hot wire shapes ----------------------------------------------


def _hot_messages():
    from ..paxos.messages import Propose, RingAccept
    from ..paxos.types import AppValue, Batch

    value = AppValue(payload="x" * 32, size=128, msg_id=7, sender="client")
    batch = Batch(
        tokens=tuple(
            AppValue(payload=f"v{i:03d}" * 8, size=128, msg_id=100 + i,
                     sender="client")
            for i in range(16)
        )
    )
    return (
        Propose(stream="s1", token=value),
        RingAccept(stream="s1", ballot=0, instance=3, batch=batch,
                   accepted_by=1),
    )


def bench_codec_roundtrip(n: int) -> dict:
    """``n`` encode+decode round trips over the hot message shapes."""
    from ..runtime import codec

    messages = _hot_messages()
    frames = [codec.encode(m) for m in messages]
    nbytes = sum(len(f) for f in frames)
    reps = n // len(messages)

    def run():
        encode = codec.encode
        decode = codec.decode
        for _ in range(reps):
            for message in messages:
                decode(encode(message))

    wall, _ = _timed(run)
    roundtrips = reps * len(messages)
    return {
        "roundtrips": roundtrips,
        "frame_bytes": nbytes,
        "wall_s": wall,
        "roundtrips_per_s": roundtrips / wall,
        "mb_per_s": (nbytes / len(messages)) * roundtrips / wall / 1e6,
    }


# -- transport: framed localhost stream --------------------------------------


def bench_transport_stream(n: int) -> dict:
    """Stream ``n`` Propose frames through one TcpTransport socket."""
    from ..net.actor import Actor
    from ..paxos.messages import Propose
    from ..paxos.types import AppValue
    from ..runtime.asyncio_kernel import AsyncioKernel
    from ..runtime.transport import TcpTransport

    class Receiver(Actor):
        def __init__(self, env, network, name):
            super().__init__(env, network, name)
            self.received = 0

        def on_propose(self, msg, src):
            self.received += 1

    async def main() -> dict:
        kernel = AsyncioKernel()
        # Queue sized to hold the whole run: this benchmark measures
        # drain speed, not the backpressure drop policy.
        transport = TcpTransport(kernel, send_queue_frames=n + 16)
        receiver = Receiver(kernel, transport, "b")
        await transport.start()
        receiver.start()
        message = Propose(
            stream="s1",
            token=AppValue(payload="y" * 32, size=128, msg_id=1, sender="a"),
        )
        t0 = time.perf_counter()
        send = transport.send
        for _ in range(n):
            send("a", "b", message, 160)
        while receiver.received < n:
            await asyncio.sleep(0.001)
        wall = time.perf_counter() - t0
        counters = dict(transport.counters())
        receiver.stop()
        await transport.stop()
        result = {
            "frames": n,
            "wall_s": wall,
            "frames_per_s": n / wall,
            "bytes_delivered": counters.get("bytes_delivered", 0),
            "mb_per_s": counters.get("bytes_delivered", 0) / wall / 1e6,
        }
        # Coalescing instrumentation (present after the PR-8 overhaul).
        for key in ("frames_coalesced", "writer_flushes"):
            if key in counters:
                result[key] = counters[key]
        if counters.get("writer_flushes"):
            result["frames_per_flush"] = (
                counters.get("frames_coalesced", n) / counters["writer_flushes"]
            )
        return result

    return asyncio.run(main())


# -- cluster: delivered values/s under fixed offered load --------------------


def _cluster_kwargs(quick: bool) -> dict:
    # Single stream, two replicas, a three-acceptor ring: the smallest
    # deployment that exercises every live datapath layer.  The offered
    # load is far above the pre-overhaul capacity so the measurement is
    # a *saturation* throughput, not an echo of the arrival rate.
    return dict(
        streams=1,
        replicas=2,
        acceptors_per_stream=3,
        duration=1.0,            # unused: the bench drives its own load
        rate=6000.0 if quick else 9000.0,
        payload_size=64,
        drain_timeout=30.0,
    )


def bench_live_cluster(
    quick: bool,
    warmup: Optional[float] = None,
    window: Optional[float] = None,
    burst: int = 24,
) -> dict:
    """Offered-load throughput of a full live cluster.

    Open-loop: values are submitted at the configured rate in bursts
    regardless of completion, the pipeline saturates, and the delivered
    rate at the slowest replica over a steady-state window is the
    datapath's capacity.  Ends with a drain + replica-agreement check,
    so a fast-but-wrong datapath cannot pass.
    """
    from ..runtime.node import percentile
    from ..runtime.supervisor import LiveCluster, LiveConfig

    warmup = (0.5 if quick else 1.0) if warmup is None else warmup
    window = (2.0 if quick else 4.0) if window is None else window
    config = LiveConfig(**_cluster_kwargs(quick))

    async def main() -> dict:
        cluster = LiveCluster(config)
        loop = cluster._loop
        interval = burst / config.rate
        sequence = 0
        # Deadline-based pacing: asyncio.sleep overshoots by scheduler
        # granularity, so a sleep-per-burst loop silently under-offers.
        # Tracking an absolute next-burst deadline keeps the offered
        # rate honest -- late wakeups submit the bursts they owe.
        next_at = loop.time()

        async def pump(until: float) -> None:
            nonlocal sequence, next_at
            while True:
                now = loop.time()
                if now >= until:
                    return
                while next_at <= now:
                    for _ in range(burst):
                        cluster.multicast("s1", sequence)
                        sequence += 1
                    next_at += interval
                await asyncio.sleep(min(next_at - loop.time(), until - now))

        def slowest_delivered() -> int:
            return min(
                len(log.records) for log in cluster.invariants.logs.values()
            )

        try:
            await cluster.start()
            await pump(loop.time() + warmup)
            before = slowest_delivered()
            t0 = time.perf_counter()
            await pump(loop.time() + window)
            t1 = time.perf_counter()
            after = slowest_delivered()
            agreed = await cluster.drain(config.drain_timeout)
            latencies = cluster.latencies_ms
            counters: dict = {}
            for node in cluster.nodes:
                for key, value in node.transport.counters().items():
                    counters[key] = counters.get(key, 0) + value
            measured = after - before
            return {
                "offered_per_s": config.rate,
                "burst": burst,
                "warmup_s": warmup,
                "window_s": t1 - t0,
                "submitted": sequence,
                "delivered_in_window": measured,
                "values_per_s": measured / (t1 - t0),
                "latency_p50_ms": percentile(latencies, 50),
                "latency_p99_ms": percentile(latencies, 99),
                "agreed": agreed,
                "transport": counters,
            }
        finally:
            await cluster.stop()

    return asyncio.run(main())


# -- the suite ----------------------------------------------------------------


def _best_of(reps: int, fn, key: str) -> dict:
    best: Optional[dict] = None
    for _ in range(reps):
        result = fn()
        if best is None or result[key] > best[key]:
            best = result
    assert best is not None
    return best


# Metric compared against the baseline per benchmark (all rates: a
# regression is a drop beyond the threshold).
LIVE_BASELINE_METRICS: dict[str, tuple[str, str]] = {
    "codec_roundtrip": ("rate", "roundtrips_per_s"),
    "transport_stream": ("rate", "frames_per_s"),
    "live_cluster": ("rate", "values_per_s"),
}


def run_live_bench(quick: bool = False, reps: int = 2) -> dict:
    """Run the live suite best-of-``reps``; JSON-serialisable report."""
    sizes = dict(codec=20_000, transport=10_000) if quick else dict(
        codec=60_000, transport=40_000
    )
    benchmarks = {
        "codec_roundtrip": _best_of(
            reps, lambda: bench_codec_roundtrip(sizes["codec"]),
            "roundtrips_per_s"),
        "transport_stream": _best_of(
            reps, lambda: bench_transport_stream(sizes["transport"]),
            "frames_per_s"),
        "live_cluster": _best_of(
            reps, lambda: bench_live_cluster(quick), "values_per_s"),
    }
    report = {
        "schema": LIVE_BENCH_SCHEMA_VERSION,
        "suite": "live",
        "quick": quick,
        "reps": reps,
        "benchmarks": benchmarks,
    }
    pre = PRE_PR_LIVE.get("live_cluster", {}).get("values_per_s")
    if quick and pre:
        report["pre_pr"] = PRE_PR_LIVE
        report["speedup_vs_pre_pr"] = (
            benchmarks["live_cluster"]["values_per_s"] / pre
        )
    return report


def compare_live_to_baseline(
    report: dict, baseline: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Live-suite baseline comparison (same contract as the sim one)."""
    from .suite import compare_to_baseline

    return compare_to_baseline(
        report, baseline, threshold, metrics=LIVE_BASELINE_METRICS
    )


def live_summary_lines(report: dict) -> list[str]:
    b = report["benchmarks"]
    codec = b["codec_roundtrip"]
    stream = b["transport_stream"]
    cluster = b["live_cluster"]
    per_flush = stream.get("frames_per_flush")
    lines = [
        f"   codec_roundtrip: {codec['roundtrips_per_s']:>12,.0f} msgs/s "
        f"({codec['mb_per_s']:.1f} MB/s)",
        f"  transport_stream: {stream['frames_per_s']:>12,.0f} frames/s "
        f"({stream['mb_per_s']:.1f} MB/s"
        + (f", {per_flush:.1f} frames/flush" if per_flush else "")
        + ")",
        f"      live_cluster: {cluster['values_per_s']:>12,.0f} values/s "
        f"delivered (offered {cluster['offered_per_s']:,.0f}/s, "
        f"p50 {cluster['latency_p50_ms']:.0f} ms, "
        f"p99 {cluster['latency_p99_ms']:.0f} ms, "
        f"{'agreed' if cluster['agreed'] else 'DIVERGENT'})",
    ]
    if "speedup_vs_pre_pr" in report:
        lines.append(
            f"      live_cluster: {report['speedup_vs_pre_pr']:.2f}x "
            f"vs pre-PR-8 datapath "
            f"({PRE_PR_LIVE['live_cluster']['values_per_s']:,.0f} values/s)"
        )
    return lines
