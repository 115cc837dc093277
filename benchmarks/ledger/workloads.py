"""The ledger's four workloads, one repetition at a time.

:func:`run_workload` builds one fresh cluster (or one sim run), drives
it with inputs made from the seed, checks the outputs, and returns the
repetition's end-to-end samples -- plus, when traced, the per-layer
cost table.  It is the single Python entry point: ``run.py`` calls it
in a fresh child process per repetition, ``test_ledger.py`` calls it
in-process at 2% scale.  :func:`fold` turns the repetitions of one run
into that run's end-to-end metrics.

Timings that the CPU bounds are reported at the reference box's speed
(see calibration.py): the box this runs on changes speed under it.

A repetition is a *fixed count* of operations (``scale`` multiplies the
counts, nothing else): a fixed-time window would let heap size, hence
GC cost and peak RSS, depend on how fast the run happened to go.  How
many repetitions a run makes is ``run.py``'s business.

The live shape is driven through the public surface of
``repro.runtime.supervisor`` only (see README.md, "Surface the
benchmark depends on"); the sim shape through ``run_vertical``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import calibration
import tracing

# -- the metric names and units (BENCHMARK.json carries exactly these) --------

END_TO_END = {
    "setup_s": "s",
    "delivered_per_s": "1/s",
    "cpu_us_per_value": "us",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
# Sampled within a repetition (throughput and CPU once per segment, the
# latency percentiles over its window); the others once per repetition.
SEGMENT_METRICS = (
    "delivered_per_s", "cpu_us_per_value", "latency_p50_ms", "latency_p95_ms",
)

# Rows of the cost table: together with the residual of the workload's
# shape they add up to ``process.cpu_us_per_value`` of the traced run.
LEDGER_ROWS = {
    "runtime.codec.encode_us_per_value": "runtime.codec.encode",
    "runtime.codec.decode_us_per_value": "runtime.codec.decode",
    "runtime.transport.send_us_per_value": "runtime.transport.send",
    "paxos.coordinator.self_us_per_value": "paxos.coordinator",
    "paxos.acceptor.self_us_per_value": "paxos.acceptor",
    "paxos.learner.self_us_per_value": "paxos.learner",
    "multicast.elastic.pump_us_per_value": "multicast.elastic.pump",
    "multicast.replica.apply_us_per_value": "multicast.replica.apply",
    "multicast.client.self_us_per_value": "multicast.client",
    "faults.invariants.observe_us_per_value": "faults.invariants.observe",
    "obs.trace.emit_us_per_value": "obs.trace.emit",
    "sim.network.send_us_per_value": "sim.network.send",
    "process.gc.pause_us_per_value": "process.gc.pause",
    "bench.driver_us_per_value": "bench.driver",
}
LIVE_RESIDUAL = "runtime.asyncio_kernel.residual_us_per_value"
SIM_RESIDUAL = "sim.core.residual_us_per_value"
TRACED_CPU = "process.cpu_us_per_value"

PER_LAYER = {
    **dict.fromkeys(LEDGER_ROWS, "us"),
    LIVE_RESIDUAL: "us",
    SIM_RESIDUAL: "us",
    TRACED_CPU: "us",
    "runtime.codec.calls_per_value": "count",
    "runtime.transport.msgs_per_value": "count",
    "runtime.transport.bytes_per_value": "B",
    "runtime.transport.wire_bytes_per_payload_byte": "ratio",
    "runtime.transport.flushes_per_value": "count",
    "runtime.transport.frames_per_flush": "count",
    "runtime.transport.peak_send_queue": "count",
    "runtime.transport.dropped": "count",
    "paxos.coordinator.values_per_instance": "count",
    "paxos.coordinator.batch_wait_ms_p50": "ms",
    "paxos.coordinator.useful_instance_share": "ratio",
    "paxos.acceptor.msgs_per_value": "count",
    "paxos.skip.skip_positions_per_value": "count",
    "multicast.elastic.useful_pump_share": "ratio",
    "multicast.elastic.merge_wait_ms_p50": "ms",
    "multicast.elastic.subscribe_commit_ms": "ms",
    "multicast.elastic.subscribe_gap_ms": "ms",
    "obs.trace.emits_per_value": "count",
    "process.gc.pause_share": "ratio",
    "process.gc.pause_ms_max": "ms",
    "process.gc.gen2_collections": "count",
    "client.latency_p99_ms": "ms",
    "client.latency_p999_ms": "ms",
    "bench.generator_late_ms_p99": "ms",
    "bench.trace_overhead_share": "ratio",
}


# -- workload definitions ---------------------------------------------------------


@dataclass(frozen=True)
class LiveSpec:
    """One live workload at scale 1 (the counts ``scale`` multiplies)."""

    streams: int
    rate: float                 # LiveConfig.rate: sizes λ, not the load
    payload_bytes: int
    callers: int = 0            # closed loop: outstanding values
    warm_values: int = 0
    measured_values: int = 0
    open_rate: float = 0.0      # open loop: values per second
    open_seconds: float = 0.0   # open loop: measured schedule length


LIVE = {
    "live_closed_small": LiveSpec(
        streams=1, rate=20000.0, payload_bytes=64,
        callers=1024, warm_values=5_000, measured_values=40_000,
    ),
    "live_closed_large": LiveSpec(
        streams=1, rate=20000.0, payload_bytes=8192,
        callers=64, warm_values=1_000, measured_values=7_500,
    ),
    "live_open_multi": LiveSpec(
        streams=5, rate=500.0, payload_bytes=64,
        open_rate=500.0, open_seconds=5.0,
    ),
}
WORKLOADS = ("sim_fig3",) + tuple(LIVE)

OPEN_TICK_S = 0.002
OPEN_WARM_S = 0.5               # before and after the warm-up subscribe
SUBSCRIBE_TAIL_S = 1.0          # gap window: request .. commit + this
SIM_SHORT_SCALE = 0.05          # a scenario-sized Figure 3: 3 sim-s
SIM_SHORT_RUNS = 20
SEGMENTS = 8


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(pct / 100 * len(ordered)) - 1))
    return ordered[rank]


def peak_rss_mb() -> float:
    """The program's peak RSS: the process's, less the calibration
    heap the benchmark itself keeps resident."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (peak_kb * 1024 - calibration.HEAP_BYTES) / 2 ** 20


# -- correctness gate -------------------------------------------------------------


def check_live(
    drained: bool,
    sequences: dict,
    submitted: list,
    subscribes_requested: int,
    subscribes_committed: int,
) -> list[str]:
    """Why a live repetition's outputs are wrong (empty = correct)."""
    errors = []
    if not drained:
        errors.append("drain() did not reach agreement")
    logs = list(sequences.items())
    reference_name, reference = logs[0]
    for name, sequence in logs[1:]:
        if sequence != reference:
            index = next(
                (i for i, (a, b) in enumerate(zip(reference, sequence))
                 if a != b),
                min(len(reference), len(sequence)),
            )
            errors.append(
                f"sequences diverge: {reference_name} vs {name} at index "
                f"{index}"
            )
    wanted = Counter(submitted)
    for name, sequence in logs:
        seen = Counter(msg_id for _stream, _position, msg_id in sequence)
        if seen != wanted:
            missing = sum((wanted - seen).values())
            extra = sum((seen - wanted).values())
            errors.append(
                f"{name}: {missing} submitted values not delivered, "
                f"{extra} deliveries duplicated or unknown"
            )
    if subscribes_committed != subscribes_requested:
        errors.append(
            f"{subscribes_committed}/{subscribes_requested} subscribes "
            "committed"
        )
    return errors


def check_sim(main, digests: list, full_scale: bool) -> list[str]:
    """Why a sim repetition's outputs are wrong (empty = correct)."""
    errors = []
    if len(set(digests)) > 1:
        errors.append("same-seed runs produced different result digests")
    expected = [
        k * main.config.add_interval for k in range(1, main.config.n_streams)
    ]
    if len(main.subscribe_times) != len(expected) or any(
        abs(at - want) > 1e-6
        for at, want in zip(main.subscribe_times, expected)
    ):
        errors.append(f"subscribes at {main.subscribe_times}, not {expected}")
    if full_scale and not 3.0 <= main.scaling_factor <= 4.0:
        errors.append(
            f"scaling factor {main.scaling_factor:.3f} outside [3.0, 4.0]"
        )
    if not main.latency_p95_ms > 0:
        errors.append("no client latency recorded")
    return errors


# -- live drivers -------------------------------------------------------------------


class _Tally:
    """What the delivery observers see, keyed by ``msg_id``."""

    def __init__(self, replicas: int):
        self.replicas = replicas
        self.timed_from: dict[int, float] = {}     # submit or due time
        self.remaining: dict[int, int] = {}
        self.submitted: list[int] = []
        self.completed = 0
        self.first_delivery_at: Optional[float] = None     # time.time()
        self.delivery_times: list[list[float]] = [[] for _ in range(replicas)]
        self.on_complete = lambda msg_id, latency_s, now: None

    def submit(self, msg_id: int, timed_from: float) -> None:
        self.submitted.append(msg_id)
        self.timed_from[msg_id] = timed_from
        self.remaining[msg_id] = self.replicas

    def observer(self, index: int):
        times = self.delivery_times[index]
        remaining = self.remaining

        def observe(value, stream, position):
            now = time.perf_counter()
            if self.first_delivery_at is None:
                self.first_delivery_at = time.time()
            times.append(now)
            msg_id = value.msg_id
            left = remaining.get(msg_id)
            if left is None:
                return              # duplicate delivery: the gate reports it
            if left > 1:
                remaining[msg_id] = left - 1
                return
            del remaining[msg_id]
            self.completed += 1
            self.on_complete(
                msg_id, now - self.timed_from.pop(msg_id), now
            )

        return observe


@dataclass
class _Window:
    """Marks of the measured window of one repetition.

    The window is cut into ``SEGMENTS`` equal counts of values and
    throughput and CPU are sampled per segment, so that a run's median
    over all its segments moves with the program and not with the one
    descheduled slice that lands in a segment.  The latency percentiles
    are taken over the whole window: whether a collector pause falls in
    a segment flips that segment's p95 between two values.
    """

    values: int = 0
    wall: list = field(default_factory=list)      # SEGMENTS + 1 marks
    cpu: list = field(default_factory=list)       # SEGMENTS + 1 marks
    latencies_s: list = field(default_factory=list)   # one per value
    # Open loop only: first due time to last delivery (the segment
    # marks there follow the schedule, not the deliveries).
    delivered_span_s: Optional[float] = None
    # What the cost table is taken over: CPU, span aggregates and
    # transport counters at the two ends of the window.
    ledger_wall: list = field(default_factory=list)
    ledger_cpu: list = field(default_factory=list)
    ledger_trace: list = field(default_factory=list)
    ledger_counters: list = field(default_factory=list)

    def mark(self, wall: float) -> None:
        self.wall.append(wall)
        self.cpu.append(time.process_time())

    def ledger_mark(self, cluster, recorder) -> None:
        self.ledger_wall.append(time.perf_counter())
        self.ledger_cpu.append(time.process_time())
        self.ledger_counters.append(
            _transport_counters(cluster) if cluster is not None else {}
        )
        if recorder is not None:
            self.ledger_trace.append(recorder.snapshot())

    def open(self, cluster, recorder, wall: float) -> None:
        self.mark(wall)
        self.ledger_mark(cluster, recorder)


def _payload_pool(seed: int, size: int, count: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(count)]


def _transport_counters(cluster) -> dict:
    totals: dict = {}
    for node in cluster.nodes:
        for key, value in node.transport.counters().items():
            if key == "peak_send_queue":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


def _segmented(count: float) -> tuple[int, int]:
    """``count`` rounded to SEGMENTS equal segments: (total, per segment)."""
    per_segment = max(1, round(count / SEGMENTS))
    return per_segment * SEGMENTS, per_segment


async def _closed_loop(cluster, tally, spec, scale, seed, recorder, window):
    """``callers`` values outstanding, each refilled when the last
    replica delivers it; the window is a count of completions."""
    warm = max(1, round(spec.warm_values * scale))
    measured, per_segment = _segmented(spec.measured_values * scale)
    callers = max(1, min(spec.callers, warm))
    payloads = _payload_pool(seed, spec.payload_bytes, 64)
    multicast = cluster.client.multicast
    window.values = measured
    finished = asyncio.get_running_loop().create_future()
    sent = 0

    def submit(now: float) -> None:
        nonlocal sent
        value = multicast(
            "s1", payloads[sent % len(payloads)], spec.payload_bytes
        )
        sent += 1
        tally.submit(value.msg_id, now)

    def on_complete(msg_id: int, latency_s: float, now: float) -> None:
        done = tally.completed - warm
        if done == 0:
            window.open(cluster, recorder, now)
        elif 0 < done <= measured:
            window.latencies_s.append(latency_s)
            if done % per_segment == 0:
                window.mark(now)
            if done == measured:
                window.ledger_mark(cluster, recorder)
                finished.set_result(None)
        if done < measured:
            submit(now)     # the loop stays closed until the window ends

    tally.on_complete = on_complete
    start = time.perf_counter()
    for _ in range(callers):
        submit(start)
    await asyncio.wait_for(finished, timeout=120.0)
    return {"late_s": [], "subscribes": [], "subscribes_requested": 0,
            "subscribes_committed": 0}


async def _open_loop(cluster, tally, spec, scale, seed, recorder, window):
    """Values sent on a fixed schedule whatever the cluster does, each
    timed from when it was *due*; three runtime subscribes under way."""
    rng = random.Random(seed)
    payloads = _payload_pool(seed, spec.payload_bytes, 64)
    multicast = cluster.client.multicast
    measure_s = spec.open_seconds * scale
    measured, per_segment = _segmented(spec.open_rate * measure_s)
    warm_s = OPEN_WARM_S * min(1.0, scale * 10)
    tail_s = SUBSCRIBE_TAIL_S * min(1.0, scale)
    window.values = measured
    subscribed = ["s1"]
    in_window: set[int] = set()         # measured msg_ids still in flight
    late: list[float] = []
    subscribes: list[dict] = []
    measuring = asyncio.Event()
    all_delivered = asyncio.get_running_loop().create_future()
    state = {"sent": 0, "delivered": 0, "last_delivery": 0.0}

    def on_complete(msg_id: int, latency_s: float, now: float) -> None:
        if msg_id not in in_window:
            return
        in_window.remove(msg_id)
        window.latencies_s.append(latency_s)
        state["delivered"] += 1
        if state["delivered"] == measured:
            state["last_delivery"] = now
            all_delivered.set_result(None)

    tally.on_complete = on_complete

    async def generate() -> None:
        t0 = time.perf_counter()
        k = cold_turn = 0
        while state["sent"] < measured:
            due = t0 + k * OPEN_TICK_S
            now = time.perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            while due <= now and state["sent"] < measured:
                if len(subscribed) > 1 and rng.random() >= 0.9:
                    stream = subscribed[1 + cold_turn % (len(subscribed) - 1)]
                    cold_turn += 1
                else:
                    stream = "s1"
                value = multicast(
                    stream, payloads[k % len(payloads)], spec.payload_bytes
                )
                tally.submit(value.msg_id, due)
                if measuring.is_set():
                    index = state["sent"]
                    if index == 0:
                        window.open(cluster, recorder, due)
                    in_window.add(value.msg_id)
                    late.append(now - due)
                    state["sent"] = index + 1
                    if (index + 1) % per_segment == 0:
                        window.mark(now)
                k += 1
                due = t0 + k * OPEN_TICK_S

    async def subscribe(stream: str) -> None:
        requested = time.perf_counter()
        committed = await cluster.subscribe(stream, timeout=30.0)
        subscribes.append({
            "requested": requested, "tail_s": tail_s,
            "committed": time.perf_counter() if committed else None,
        })
        if committed:
            subscribed.append(stream)

    generator = asyncio.ensure_future(generate())
    try:
        await asyncio.sleep(warm_s)
        await subscribe("s2")
        await asyncio.sleep(warm_s)
        measure_t0 = time.perf_counter()
        measuring.set()
        for index in range(2, spec.streams):
            at = measure_t0 + (index - 1) * measure_s / (spec.streams - 1)
            await asyncio.sleep(max(0.0, at - time.perf_counter()))
            await subscribe(f"s{index + 1}")
        await asyncio.wait_for(generator, timeout=120.0)
        await asyncio.wait_for(all_delivered, timeout=60.0)
        window.ledger_mark(cluster, recorder)
        window.delivered_span_s = state["last_delivery"] - window.wall[0]
    finally:
        generator.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await generator
    return {
        "late_s": late, "subscribes": subscribes[1:],
        "subscribes_requested": len(subscribes),
        "subscribes_committed": sum(
            1 for s in subscribes if s["committed"] is not None
        ),
    }


def _longest_gap_ms(times: list[float], start: float, end: float) -> float:
    end = min(end, times[-1])       # silence after the last value is no gap
    points = [start] + [t for t in times if start < t < end] + [end]
    return 1000.0 * max(b - a for a, b in zip(points, points[1:]))


async def _live_repetition(
    name: str, seed: int, scale: float, recorder, speed, spawned_at: float,
    first_delivery_only: bool,
) -> dict:
    from repro.runtime.supervisor import LiveCluster, LiveConfig

    spec = LIVE[name]
    cluster = LiveCluster(LiveConfig(
        streams=spec.streams, replicas=2, acceptors_per_stream=3,
        rate=spec.rate, payload_size=spec.payload_bytes,
        drain_timeout=60.0,
    ))
    tally = _Tally(len(cluster.replicas))
    for index, replica_name in enumerate(sorted(cluster.replicas)):
        cluster.replicas[replica_name].add_delivery_observer(
            tally.observer(index)
        )
    window = _Window()
    loop = asyncio.get_running_loop()
    report: dict = {
        "event_loop": f"{type(loop).__module__}.{type(loop).__name__}",
        "window": window, "payload_bytes": spec.payload_bytes,
    }
    try:
        await cluster.start()
        setup_slowdown = speed.burst()
        if first_delivery_only:
            value = cluster.client.multicast("s1", b"probe", 5)
            tally.submit(value.msg_id, time.perf_counter())
            while tally.first_delivery_at is None:
                await asyncio.sleep(0.001)
            report["setup_s"] = (
                tally.first_delivery_at - spawned_at
            ) / setup_slowdown
            return report
        drive = _closed_loop if spec.callers else _open_loop
        driven = await drive(
            cluster, tally, spec, scale, seed, recorder, window
        )
        report["peak_rss_mb"] = peak_rss_mb()
        # drain() only waits for *agreement*; values still in flight
        # when the window closed must land first.
        deadline = time.perf_counter() + 60.0
        while tally.remaining and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        drained = await cluster.drain(60.0)
        report["errors"] = check_live(
            drained, cluster.sequences(), tally.submitted,
            driven["subscribes_requested"], driven["subscribes_committed"],
        )
    finally:
        await cluster.stop()

    report["setup_s"] = (tally.first_delivery_at - spawned_at) / setup_slowdown
    report["attempted"] = len(tally.submitted)
    report["late_ms"] = [1000.0 * s for s in driven["late_s"]]
    gaps, commits = [], []
    for entry in driven["subscribes"]:
        if entry["committed"] is None:
            continue
        commits.append(1000.0 * (entry["committed"] - entry["requested"]))
        gaps.append(max(
            _longest_gap_ms(
                times, entry["requested"],
                entry["committed"] + entry["tail_s"],
            )
            for times in tally.delivery_times
        ))
    report["subscribe_gap_ms"] = statistics.median(gaps) if gaps else 0.0
    report["subscribe_commit_ms"] = (
        statistics.median(commits) if commits else 0.0
    )
    return report


# -- sim driver ---------------------------------------------------------------------


def _result_digest(result) -> str:
    hasher = hashlib.sha256()
    for part in (
        result.throughput, sorted(result.per_stream.items()),
        result.interval_averages, result.latency_p95_ms,
        result.scaling_factor, result.subscribe_times,
    ):
        hasher.update(repr(part).encode())
    return hasher.hexdigest()


def _sim_repetition(
    seed: int, scale: float, recorder, speed, spawned_at: float,
    first_delivery_only: bool,
) -> dict:
    from repro.harness.experiments.vertical import VerticalConfig, run_vertical

    config = VerticalConfig(
        duration=60.0 * scale, add_interval=15.0 * scale, seed=seed
    )
    window = _Window()
    report: dict = {
        "event_loop": "repro.sim.core.Environment", "window": window,
        "payload_bytes": config.value_size, "late_ms": [],
        "subscribe_gap_ms": 0.0, "subscribe_commit_ms": 0.0,
        "setup_s": (time.time() - spawned_at) / speed.burst(),
    }
    if first_delivery_only:
        return report
    # The sim has no wall-clock per-value latency; what its users wait
    # for is one scenario-sized run (a test, one seed of a chaos sweep),
    # so that is timed, on the heap such a run finds: one block of
    # them before the long run and one after it (two samples of the
    # machine, 15 s apart), each led by an untimed run.  The repeats
    # double as the determinism check.  A traced repetition reports no
    # latency and skips them.
    short_scale = SIM_SHORT_SCALE * min(1.0, scale * 10)
    short = VerticalConfig(
        duration=60.0 * short_scale, add_interval=15.0 * short_scale,
        seed=seed,
    )
    digests: list = []
    report["short_blocks"] = []

    def short_block() -> None:
        if recorder is not None:
            return
        gc.collect()
        runs = []
        for _ in range(1 + SIM_SHORT_RUNS):
            started = time.perf_counter()
            digests.append(_result_digest(run_vertical(short)))
            runs.append((started, time.perf_counter()))
        report["short_blocks"].append(runs[1:])

    short_block()
    window.open(None, recorder, time.perf_counter())
    main = run_vertical(config)
    window.mark(time.perf_counter())
    window.ledger_mark(None, recorder)
    report["peak_rss_mb"] = peak_rss_mb()
    window.values = round(sum(
        rate * config.measure_interval for _t, rate in main.throughput
    ))
    short_block()
    report["errors"] = check_sim(main, digests, full_scale=scale >= 1.0)
    report["attempted"] = window.values
    report["digest"] = _result_digest(main)
    return report


# -- folding a repetition into samples, and repetitions into a run ----------------------


def _segment_samples(report: dict, speed) -> dict:
    """One repetition's samples of every timing, keyed by metric name.

    CPU time is always taken at reference speed.  Wall time is too
    where the loop is saturated (closed loops, the sim) and so as long
    as its CPU time; an open loop's wall times are its timers'.
    """
    window = report["window"]
    segments = len(window.wall) - 1
    per_segment = window.values / segments
    marks = list(zip(window.wall, window.wall[1:]))
    slow = [speed.factor(a, b) for a, b in marks]
    cpus = [b - a for a, b in zip(window.cpu, window.cpu[1:])]
    if window.delivered_span_s is not None:
        delivered_per_s = [window.values / window.delivered_span_s]
        latencies = window.latencies_s
    else:
        delivered_per_s = [
            per_segment / (b - a) * f for (a, b), f in zip(marks, slow)
        ]
        whole = speed.factor(window.wall[0], window.wall[-1])
        latencies = [s / whole for s in window.latencies_s]
    if "short_blocks" in report:    # sim: one sample per scenario-sized run
        latencies = [
            (b - a) / speed.factor(runs[0][0], runs[-1][1])
            for runs in report["short_blocks"] for a, b in runs
        ]
    timed = [latencies] if latencies else []
    return {
        "delivered_per_s": delivered_per_s,
        "cpu_us_per_value": [
            1e6 * c / per_segment / f for c, f in zip(cpus, slow)
        ],
        "latency_p50_ms": [1000.0 * percentile(s, 50) for s in timed],
        "latency_p95_ms": [1000.0 * percentile(s, 95) for s in timed],
    }


def fold(repetitions: list[dict], setups: list[float] = ()) -> dict:
    """One run's end-to-end metrics from its untraced repetitions.

    Returns ``name -> {"value", "low", "high"}``.  A timing is the
    median over the samples of all repetitions pooled; set-up time
    (which also takes the set-up-only children's ``setups``) and peak
    RSS are medians over repetitions.  ``low``/``high`` are the least
    and greatest per-repetition value: the spread ``compare.py`` holds
    against the bound.
    """
    metrics = {}
    for name in END_TO_END:
        if name in SEGMENT_METRICS:
            per_rep = [r["segments"][name] for r in repetitions]
            pooled = [sample for samples in per_rep for sample in samples]
            each = [statistics.median(samples) for samples in per_rep]
        else:
            each = [r[name] for r in repetitions]
            pooled = each + (list(setups) if name == "setup_s" else [])
        metrics[name] = {
            "value": statistics.median(pooled),
            "low": min(each), "high": max(each),
        }
    return metrics


def _ungated(report: dict) -> dict:
    latencies = [1000.0 * s for s in report["window"].latencies_s]
    late = report["late_ms"]
    return {
        "client.latency_p99_ms":
            percentile(latencies, 99) if latencies else 0.0,
        "client.latency_p999_ms":
            percentile(latencies, 99.9) if latencies else 0.0,
        "bench.generator_late_ms_p99": percentile(late, 99) if late else 0.0,
        "multicast.elastic.subscribe_gap_ms": report["subscribe_gap_ms"],
        "multicast.elastic.subscribe_commit_ms":
            report["subscribe_commit_ms"],
    }


def _per_layer(report: dict, recorder, speed, sim: bool) -> dict:
    window = report["window"]
    values = window.values
    traced = recorder.window(*window.ledger_trace)
    cpu_s = window.ledger_cpu[1] - window.ledger_cpu[0]
    # The cost table is CPU time, so all of it is at reference speed.
    slow = speed.factor(*window.ledger_wall)
    cpu_us = 1e6 * cpu_s / values / slow
    rows = {
        metric: traced["self_ns"].get(span, 0) / 1e3 / values / slow
        for metric, span in LEDGER_ROWS.items()
    }
    residual = cpu_us - sum(rows.values())
    rows[LIVE_RESIDUAL] = 0.0 if sim else residual
    rows[SIM_RESIDUAL] = residual if sim else 0.0
    rows[TRACED_CPU] = cpu_us

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def p50(series: str) -> float:
        data = traced["samples"].get(series)
        return percentile(data, 50) if data else 0.0

    count, counts = traced["count"], traced["counts"]
    before, after = window.ledger_counters

    def moved(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    rows["runtime.codec.calls_per_value"] = ratio(
        count.get("runtime.codec.encode", 0)
        + count.get("runtime.codec.decode", 0), values)
    rows["runtime.transport.msgs_per_value"] = ratio(
        moved("messages_sent"), values)
    rows["runtime.transport.bytes_per_value"] = ratio(
        moved("bytes_written"), values)
    rows["runtime.transport.wire_bytes_per_payload_byte"] = ratio(
        moved("bytes_written"), values * report["payload_bytes"])
    rows["runtime.transport.flushes_per_value"] = ratio(
        moved("writer_flushes"), values)
    rows["runtime.transport.frames_per_flush"] = ratio(
        moved("frames_coalesced"), moved("writer_flushes"))
    rows["runtime.transport.peak_send_queue"] = after.get("peak_send_queue", 0)
    rows["runtime.transport.dropped"] = moved("messages_dropped")
    rows["paxos.coordinator.values_per_instance"] = ratio(
        counts.get("coordinator.values", 0),
        counts.get("coordinator.value_instances", 0))
    rows["paxos.coordinator.batch_wait_ms_p50"] = p50(
        "coordinator.batch_wait_ms")
    rows["paxos.coordinator.useful_instance_share"] = ratio(
        counts.get("coordinator.value_instances", 0),
        counts.get("coordinator.instances", 0))
    rows["paxos.acceptor.msgs_per_value"] = ratio(
        count.get("paxos.acceptor", 0), values)
    rows["paxos.skip.skip_positions_per_value"] = ratio(
        counts.get("skip.positions", 0), values)
    rows["multicast.elastic.useful_pump_share"] = ratio(
        counts.get("elastic.useful_pumps", 0), counts.get("elastic.pumps", 0))
    rows["multicast.elastic.merge_wait_ms_p50"] = p50("elastic.merge_wait_ms")
    rows["obs.trace.emits_per_value"] = ratio(
        counts.get("trace.emits", 0), values)
    pauses = traced["gc_pauses_ns"]
    rows["process.gc.pause_share"] = ratio(sum(pauses) / 1e9, cpu_s)
    rows["process.gc.pause_ms_max"] = max(pauses, default=0) / 1e6
    rows["process.gc.gen2_collections"] = traced["gen2"]
    rows.update(_ungated(report))
    # Filled in by run.py, which also has the untraced repetitions.
    rows["bench.trace_overhead_share"] = 0.0
    return rows


def run_workload(
    name: str,
    seed: int,
    scale: float = 1.0,
    traced: bool = False,
    spawned_at: Optional[float] = None,
    first_delivery_only: bool = False,
    spans_out: Optional[str] = None,
) -> dict:
    """One repetition of workload ``name``.

    Returns ``{"correct", "attempted", "failed", "errors", "info"}``
    and, when correct, ``"setup_s"``, ``"peak_rss_mb"`` and
    ``"segments"`` (what :func:`fold` reads) plus ``"per_layer"`` when
    ``traced``.  A repetition whose outputs are wrong carries no
    timings: all its operations count as failed.  With
    ``first_delivery_only`` the cluster is only brought up to its first
    delivered value and the result is ``{"setup_s": ...}``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")
    if spawned_at is None:
        spawned_at = time.time()
    sim = name == "sim_fig3"
    recorder = tracing.SpanRecorder() if traced else None
    speed = calibration.MachineSpeed()
    with tracing.installed(recorder) if traced else contextlib.nullcontext():
        speed.start(
            recorder.wrap("bench.driver", speed.tick) if traced else None
        )
        try:
            if sim:
                report = _sim_repetition(
                    seed, scale, recorder, speed, spawned_at,
                    first_delivery_only,
                )
            else:
                report = asyncio.run(_live_repetition(
                    name, seed, scale, recorder, speed, spawned_at,
                    first_delivery_only,
                ))
        finally:
            speed.stop()
    if first_delivery_only:
        return {"setup_s": report["setup_s"]}
    if spans_out is not None and recorder is not None:
        recorder.write(spans_out)
    result = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "attempted": report["attempted"],
        "info": {"event_loop": report["event_loop"]},
    }
    if report["errors"]:
        result.update(
            correct=False, failed=report["attempted"],
            errors=report["errors"],
        )
        return result
    result.update(
        correct=True, failed=0, errors=[],
        setup_s=report["setup_s"], peak_rss_mb=report["peak_rss_mb"],
        segments=_segment_samples(report, speed),
    )
    window = report["window"]
    result["info"].update(
        values=window.values,
        machine_slowdown=speed.factor(*window.ledger_wall),
        **_ungated(report),
    )
    if sim:
        result["info"]["digest"] = report["digest"]
    if traced:
        result["per_layer"] = _per_layer(report, recorder, speed, sim)
    return result
