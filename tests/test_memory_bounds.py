"""Stated memory bounds of the per-entry structures that grow with a run.

An acceptor keeps every decided instance until it is trimmed, a
coordinator remembers which instances it decided, a replica's token
log keeps what its merger has yet to read, the invariant suite's
delivery log keeps the ids of what a replica delivered (and its spec a
bounded window of them), the harness's ``Counter``/``Series`` keep a
sample per event and a flight recorder keeps the most recent trace
within its byte budget.  Each is measured with
``tracemalloc`` as the bytes it retains per entry, against the bounds
in docs/RUNTIME.md ("Memory per entry").  The bounds leave headroom
over what CPython 3.10-3.12 measure, not over a per-entry object.

Two rows run an in-process live cluster instead, whose
``TrimCoordinator`` trims the acceptor logs behind the slowest replica:
its acceptor logs hold a bounded number of payload bytes however long
it runs, and a soak of ``REPRO_SOAK_SECONDS`` (default 3; the nightly
CI job runs 600) holds its RSS flat per delivered value.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import tracemalloc

from repro import spec
from repro.faults import invariants
from repro.faults.invariants import DeliveryLog, InvariantSuite
from repro.multicast.merge import StreamCursor
from repro.multicast.stream import TokenLog
from repro.harness import broadcast
from repro.harness.experiments import vertical
from repro.multicast.trim import TRIM_EVERY_BYTES, TRIM_EVERY_TOKENS
from repro.obs.metrics import Counter, Series
from repro.obs.recorder import DEFAULT_MAX_BYTES, FlightRecorder
from repro.paxos.config import StreamConfig
from repro.paxos.coordinator import CoordinatorActor
from repro.paxos.messages import Decision
from repro.paxos.types import AppValue, Batch
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.runtime.kernel import every
from repro.runtime.supervisor import LiveCluster, LiveConfig
from repro.storage.log import AcceptorLog

ENTRIES = 100_000


def _retained(build):
    """What ``build()`` returns and the bytes it left allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        kept = build()
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, after - before


def test_acceptor_log_retains_at_most_40_bytes_per_decided_instance():
    shared = Batch(tokens=(AppValue(payload="v", size=64),))

    def build():
        log = AcceptorLog()
        for instance in range(ENTRIES):
            log.accept(instance, 0, shared)
            log.mark_decided(instance)
        return log

    log, retained = _retained(build)
    assert len(log) == ENTRIES
    assert retained / ENTRIES <= 40


def test_coordinator_retains_its_stragglers_not_its_decisions():
    env = Environment()
    coordinator = CoordinatorActor(
        env, Network(env), StreamConfig(name="s1", acceptors=("s1/a1",))
    )
    shared = Batch(tokens=(AppValue(payload="v", size=64),))
    stragglers = range(5_000, ENTRIES, 10_000)

    def decide(instances):
        for instance in instances:
            coordinator.on_decision(
                Decision(stream="s1", instance=instance, batch=shared), "a1"
            )
        return coordinator

    held_back = set(stragglers)
    _kept, retained = _retained(
        lambda: decide(i for i in range(ENTRIES) if i not in held_back)
    )
    decided = coordinator.decided_instances
    assert len(decided) == ENTRIES - len(held_back)
    assert all(instance not in decided for instance in stragglers)
    assert retained <= 1024 + 256 * len(held_back)

    _kept, retained = _retained(lambda: decide(stragglers))
    assert len(decided) == ENTRIES
    assert all(instance in decided for instance in range(ENTRIES))
    assert retained <= 1024


def _followed_log(lag: int):
    """A token log fed ``ENTRIES`` one-value batches, read by its
    cursor one position per batch once ``lag`` batches behind."""
    shared = Batch(tokens=(AppValue(payload="v", size=64),))
    log = TokenLog()
    cursor = StreamCursor("s1", log)
    for instance in range(ENTRIES):
        log.append_batch(shared, instance=instance)
        if instance >= lag:
            cursor.peek()
            cursor.position += 1
    cursor.peek()
    return log, cursor


def test_token_log_read_as_it_grows_retains_a_constant():
    (log, cursor), retained = _retained(lambda: _followed_log(0))
    assert cursor.position == log.frontier == ENTRIES
    assert log.replay_point(cursor.position) == (ENTRIES, ENTRIES)
    assert retained <= 16 * 1024


def test_token_log_retains_at_most_400_bytes_per_value_its_cursor_lags():
    lag = 5_000
    (log, cursor), retained = _retained(lambda: _followed_log(lag))
    assert log.frontier - cursor.position == lag
    assert log.replay_point(cursor.position)[0] == ENTRIES - lag
    assert retained <= 16 * 1024 + 400 * lag


def _logged(run_length: int, budget: float) -> DeliveryLog:
    """A delivery log fed ``ENTRIES`` values with 8 KiB payloads of
    their own, in runs of ``run_length``; a log that keeps more than
    ``budget`` bytes is stopped early, so a failing one never holds the
    run's 800 MB of payloads."""
    log = DeliveryLog("r1", "G1")
    for first in range(0, ENTRIES, run_length):
        values = [
            AppValue(payload=bytes(8192), size=8192, msg_id=msg_id)
            for msg_id in range(first, first + run_length)
        ]
        log.append("s1", first, values, float(first))
        if tracemalloc.get_traced_memory()[0] > budget:
            break
    return log


def test_delivery_log_retains_12_bytes_per_value_and_48_per_run_not_values():
    for run_length in (1, 100):
        runs = ENTRIES // run_length
        budget = 12 * ENTRIES + 48 * runs
        log, retained = _retained(lambda: _logged(run_length, 2 * budget))
        assert log.delivered == ENTRIES and len(log.lengths) == runs
        assert retained <= budget, (run_length, retained / ENTRIES)


def _spec_bytes() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, spec.__file__)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_the_suites_spec_holds_its_bytes_flat_per_delivered_run(monkeypatch):
    from tests.faults.test_invariants import StubReplica

    monkeypatch.setattr(invariants, "_SPEC_BOUND", 1_000)
    replicas = {"r1": StubReplica("G1"), "r2": StubReplica("G1"),
                "r3": StubReplica("G2")}
    suite = InvariantSuite(replicas)
    run_length = 10

    def deliver(runs, start):
        for first in range(start, start + runs * run_length, run_length):
            values = [(msg_id, None) for msg_id in
                      range(first, first + run_length)]
            for replica in replicas.values():
                replica.deliver_run("s1", first, values)
            if first % (100 * run_length) == 0:
                suite.check()
        suite.check()

    warm_up = ENTRIES // (5 * run_length)
    gc.collect()
    tracemalloc.start()
    try:
        deliver(warm_up, 0)
        gc.collect()
        before = _spec_bytes()
        deliver(4 * warm_up, warm_up * run_length)
        gc.collect()
        after = _spec_bytes()
    finally:
        tracemalloc.stop()
    assert suite.spec.folded == 3 * ENTRIES
    assert len(suite.spec.groups["G1"].canon) <= 1_500
    assert after - before <= 4 * warm_up * 0.5, (before, after)


class _Clock:
    """The one attribute the instruments read on record."""

    _now = now = 0.0


def test_counter_and_series_retain_at_most_48_bytes_per_sample_pair():
    clock = _Clock()

    def build():
        counter, series = Counter(clock), Series(clock)
        for sample in range(ENTRIES):
            clock._now = clock.now = sample * 1e-3
            counter.record()
            series.record(sample * 0.37)
        return counter, series

    (counter, series), retained = _retained(build)
    assert len(counter) == len(series) == ENTRIES
    assert retained / ENTRIES <= 48


def test_flight_ring_retains_its_byte_budget_not_the_run():
    # A saturated live run's records: client.submit / learner.learned
    # carry ~160 msg_ids each.  Once a budget's worth went in, the ring
    # holds at most its budget, and as much again adds nothing to it.
    ids_per_record = 160
    per_record = 40 * (7 + ids_per_record)     # ~what each one holds
    fill = DEFAULT_MAX_BYTES // per_record

    def build(records):
        recorder = FlightRecorder()
        for seq in range(records):
            first = 10 ** 9 + seq * ids_per_record
            recorder.record((float(seq), seq, "learner.learned", "r1", "s1",
                             seq, 3) + tuple(range(first,
                                                   first + ids_per_record)))
        return recorder

    ring, at_bound = _retained(lambda: build(fill))
    assert ring.dropped < fill // 50
    ring, twice = _retained(lambda: build(2 * fill))
    assert ring.dropped >= fill
    assert ring.bytes <= DEFAULT_MAX_BYTES
    assert twice <= DEFAULT_MAX_BYTES
    assert abs(twice - at_bound) <= DEFAULT_MAX_BYTES // 50


# -- an in-process live cluster: acceptor logs trimmed as it runs ------------

PAYLOAD = 8192
CALLERS = 64
# What the acceptors of a stream may hold: each of three keeps what was
# decided since the last trim (TRIM_EVERY_BYTES of deliveries, summed
# over two replicas) plus what is in flight, with room for as much again.
ACCEPTOR_BOUND = 3 * 2 * (TRIM_EVERY_BYTES + CALLERS * PAYLOAD)


def _acceptor_log_bytes(cluster: LiveCluster) -> int:
    """Payload bytes held by every acceptor log of the cluster."""
    held = 0
    for deployment in cluster.directory.values():
        for acceptor in deployment.acceptors:
            log = acceptor.core.log
            for instance in range(log.trimmed_below, log.highest_instance + 1):
                entry = log.get(instance)
                if entry is not None and entry.value is not None:
                    held += entry.value.payload_bytes
    return held


def _cluster() -> LiveCluster:
    return LiveCluster(LiveConfig(
        streams=1, replicas=2, rate=20000.0, payload_size=PAYLOAD,
        drain_timeout=30.0,
    ))


async def _closed_loop(values: int) -> list[int]:
    """``values`` 8 KiB values through a one-stream, two-replica
    cluster, ``CALLERS`` outstanding, each refilled when both replicas
    delivered it; the acceptor-log bytes after every ``CALLERS``
    completions.  A loop whose logs pass twice the bound stops there."""
    cluster = _cluster()
    payload = bytes(PAYLOAD)
    outstanding: dict[int, int] = {}
    samples: list[int] = []
    finished = asyncio.get_running_loop().create_future()
    sent = 0

    def submit() -> None:
        nonlocal sent
        value = cluster.client.multicast("s1", payload, PAYLOAD)
        outstanding[value.msg_id] = len(cluster.replicas)
        sent += 1

    def delivered(value, _stream, _position) -> None:
        left = outstanding.pop(value.msg_id) - 1
        if left:
            outstanding[value.msg_id] = left
            return
        if (sent - len(outstanding)) % CALLERS == 0:
            samples.append(_acceptor_log_bytes(cluster))
            if samples[-1] > 2 * ACCEPTOR_BOUND and not finished.done():
                finished.set_result(None)
        if sent < values:
            submit()
        elif not outstanding and not finished.done():
            finished.set_result(None)

    for replica in cluster.replicas.values():
        replica.add_delivery_observer(delivered)
    await cluster.start()
    try:
        for _ in range(CALLERS):
            submit()
        await asyncio.wait_for(finished, timeout=60.0)
    finally:
        await cluster.stop()
    return samples


def test_live_acceptor_logs_hold_flat_behind_the_slowest_replica():
    samples = asyncio.run(_closed_loop(4_000))
    after_warm_up = samples[len(samples) // 4:]
    assert max(after_warm_up) <= ACCEPTOR_BOUND, (
        max(after_warm_up), ACCEPTOR_BOUND
    )
    assert len(samples) == 4_000 // CALLERS, len(samples)


SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "3"))
SOAK_RATE = 2_000               # 8 KiB values a second, paced
# RSS a delivered value may leave behind once warmed up, past a fixed
# 4 MiB for the allocator's steps.  What still grows per value by
# design: the coordinator's dedup set and the suite's delivery logs
# (ids, ~100 B together), and the flight ring until it fills its byte
# budget.  An untrimmed acceptor log keeps three 8 KiB copies (~25 KB).
SOAK_SLOPE_BOUND = 256
SOAK_SLACK = 4 << 20


def _rss() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


async def _soak(seconds: float):
    """A paced 8 KiB load for ``seconds``; (elapsed, delivered, RSS)
    every half second, the run's outcome and the acceptor-log bytes
    at their highest.  Acceptor logs past twice the bound end it."""
    cluster = _cluster()
    payload = bytes(PAYLOAD)
    delivered = 0

    def count(_stream, _first, values) -> None:
        nonlocal delivered
        delivered += len(values)

    cluster.replicas["g1/r1"].add_run_observer(count)
    samples: list[tuple[float, int, int]] = []
    held = 0
    loop = asyncio.get_running_loop()
    tick, burst = 0.01, SOAK_RATE // 100
    await cluster.start()
    try:
        start = loop.time()
        ticks = 0
        while loop.time() < start + seconds and held <= 2 * ACCEPTOR_BOUND:
            for _ in range(burst):
                cluster.client.multicast("s1", payload, PAYLOAD)
            ticks += 1
            if ticks % 50 == 0:
                samples.append((loop.time() - start, delivered, _rss()))
                held = max(held, _acceptor_log_bytes(cluster))
            await asyncio.sleep(max(0.0, start + ticks * tick - loop.time()))
        outcome = await cluster.driver.collect(await cluster.drain(30.0))
    finally:
        await cluster.stop()
    return samples, outcome, held


def test_live_soak_holds_rss_flat_per_delivered_value():
    samples, outcome, held = asyncio.run(_soak(SOAK_SECONDS))
    assert outcome.ok, outcome.detail
    assert held <= ACCEPTOR_BOUND, (held, ACCEPTOR_BOUND)
    # After the first half: the ring and the allocator's arenas warmed.
    settled = [s for s in samples if s[0] >= SOAK_SECONDS / 2]
    assert len(settled) >= 3, samples
    slope = statistics.linear_regression(
        [delivered for _t, delivered, _rss in settled],
        [rss for _t, _delivered, rss in settled],
    ).slope
    values = settled[-1][1] - settled[0][1]
    print(f"soak: {samples[-1][1]} values, {slope:.0f} B of RSS a value")
    assert slope * values <= SOAK_SLACK + SOAK_SLOPE_BOUND * values, (
        slope, samples
    )


# -- the simulator: Figure 3's acceptor logs trimmed as it runs -------------

# How far an acceptor's trim horizon may trail the slowest replica's
# replay floor: a trim waits for TRIM_EVERY_TOKENS learned tokens over
# two replicas (32 one-value instances each), and two trims' worth
# leaves room for the Trim in flight.
SIM_TRAIL_BOUND = 2 * TRIM_EVERY_TOKENS


def test_sim_acceptor_logs_hold_flat_behind_the_slowest_replica(monkeypatch):
    """A Figure 3-shaped run (four streams subscribed one after
    another, 32 KiB values, two replicas): sampled every 100 ms, each
    acceptor's trim horizon stays within ``SIM_TRAIL_BOUND`` instances
    of the lowest replay point over the replicas merging its stream --
    an untrimmed log trails by everything decided."""
    clusters: list[vertical.MulticastCluster] = []
    replicas: list[broadcast.BroadcastReplica] = []
    trails: list[int] = []

    def sample(directory) -> None:
        for name, deployment in directory.items():
            floors = [
                log.replay_point(position)[0] for replica in replicas
                if (log := replica.logs.get(name)) is not None
                and (position := replica.merger.positions().get(name))
                is not None
            ]
            if floors and not any(
                r.merger.pending_subscription == name for r in replicas
            ):
                trails.extend(min(floors) - a.core.log.trimmed_below
                              for a in deployment.acceptors)

    class Sampled(vertical.MulticastCluster):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            clusters.append(self)
            every(self.env, 0.1, lambda: sample(self.directory))

    class Listed(broadcast.BroadcastReplica):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            replicas.append(self)

    monkeypatch.setattr(vertical, "MulticastCluster", Sampled)
    monkeypatch.setattr(broadcast, "BroadcastReplica", Listed)
    result = vertical.run_vertical(vertical.VerticalConfig(
        duration=8.0, add_interval=2.0, seed=7,
    ))
    assert len(clusters) == 1 and len(replicas) == 2
    assert result.scaling_factor > 2.0 and len(trails) > 200
    print(f"sim trail: at most {max(trails)} instances")
    assert max(trails) <= SIM_TRAIL_BOUND, (max(trails), SIM_TRAIL_BOUND)
