"""Submissions are batched at the proposer (the client).

What a client multicasts to one stream within one event-loop turn
travels as one ``Propose`` carrying a ``Batch`` of the tokens, in
submission order.  Counts and orders, not timings, on a real localhost
cluster:

* a burst far beyond the transport's per-name frame bound is delivered
  exactly once everywhere -- before batching, everything past the
  1,024th frame was dropped at the sender and ``drain()`` still agreed;
* control tokens ride the same outbox, so one client's submissions to a
  stream are ordered as they were made;
* the coordinator deduplicates a batch token by token: a batch that
  arrives twice, or repeats some of an earlier one, orders only what it
  has not seen.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.multicast.api import SUBMISSION_BATCH_BYTES
from repro.paxos.coordinator import CoordinatorActor
from repro.paxos.messages import Propose
from repro.paxos.types import AppValue, Batch, SubscribeMsg
from repro.runtime.supervisor import LiveCluster, LiveConfig

BURST = 4096
PAYLOAD = 64


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=90))


@contextlib.asynccontextmanager
async def live_cluster(streams=1):
    """A started cluster with no workload of its own."""
    cluster = LiveCluster(LiveConfig(
        streams=streams, replicas=2, rate=0.0, drain_timeout=30.0,
    ))
    await cluster.start()
    try:
        yield cluster
    finally:
        await cluster.stop()


async def delivered(cluster, count, timeout=30.0):
    """Every replica's delivered ``msg_id``s once each has ``count``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        sequences = cluster.sequences()
        if min(len(sequence) for sequence in sequences.values()) >= count:
            break
        await asyncio.sleep(0.01)
    assert await cluster.drain(30.0)
    return {
        name: [msg_id for _stream, _position, msg_id in sequence]
        for name, sequence in cluster.sequences().items()
    }


def record_proposals(monkeypatch):
    """Token count of every ``Propose`` a coordinator is handed (before
    the cluster starts: actors bind their handlers on first use)."""
    proposals: list[int] = []
    on_propose = CoordinatorActor.on_propose

    def recording(self, msg, src):
        token = msg.token
        proposals.append(
            token.token_count if isinstance(token, Batch) else 1
        )
        on_propose(self, msg, src)

    monkeypatch.setattr(CoordinatorActor, "on_propose", recording)
    return proposals


def test_a_burst_in_one_loop_turn_is_not_lost(monkeypatch):
    proposals = record_proposals(monkeypatch)

    async def main():
        async with live_cluster() as cluster:
            transport = cluster.client_node.transport
            frames = -(-BURST * PAYLOAD // SUBMISSION_BATCH_BYTES)
            assert frames == 4
            peak_before = transport.peak_send_queue
            submitted = [
                cluster.client.multicast("s1", b"x" * PAYLOAD, PAYLOAD).msg_id
                for _ in range(BURST)
            ]
            assert not proposals        # nothing left before the turn ended
            await asyncio.sleep(0)      # the end-of-turn callback ran
            # The burst sat in the send queue as the frames it needs,
            # not as one frame per value against a 1,024-frame bound.
            assert transport.peak_send_queue <= max(frames, peak_before)
            sequences = await delivered(cluster, BURST)
            for name, msg_ids in sequences.items():
                assert msg_ids == submitted, name
            assert proposals == [BURST // frames] * frames
            counters = transport.counters()
            assert counters["dropped_backpressure"] == 0
            assert counters["messages_dropped"] == 0
            assert not cluster.kernel.failures

    run(main())


def test_a_burst_of_large_values_is_cut_by_bytes(monkeypatch):
    proposals = record_proposals(monkeypatch)

    async def main():
        async with live_cluster() as cluster:
            config = cluster.directory["s1"].config
            assert SUBMISSION_BATCH_BYTES <= config.batch_max_bytes
            size = SUBMISSION_BATCH_BYTES // 4 + 1      # three fit, not four
            submitted = [
                cluster.client.multicast("s1", bytes(size), size).msg_id
                for _ in range(8)
            ]
            sequences = await delivered(cluster, 8)
            for name, msg_ids in sequences.items():
                assert msg_ids == submitted, name
            assert proposals == [3, 3, 2]

    run(main())


def test_a_lone_submission_is_the_propose_it_always_was(monkeypatch):
    sent = []

    async def main():
        async with live_cluster() as cluster:
            real_send = cluster.client.send
            monkeypatch.setattr(
                cluster.client, "send",
                lambda dst, payload: (
                    sent.append(payload), real_send(dst, payload)
                ),
            )
            value = cluster.client.multicast("s1", b"one", 3)
            await delivered(cluster, 1)
            assert [type(p) for p in sent] == [Propose]
            assert sent[0].token is value

    run(main())


def test_control_tokens_keep_their_place_among_a_turns_values():
    async def main():
        async with live_cluster(streams=2) as cluster:
            client = cluster.client
            first = client.multicast("s1", b"before", 6)
            request_id = cluster.client_node.subscribe_msg("s2", via="s1")
            second = client.multicast("s1", b"after", 5)
            assert await cluster.wait_subscribed("s2", timeout=30.0)
            await delivered(cluster, 2)
            for name, replica in cluster.replicas.items():
                log = replica.logs["s1"]
                tokens = [
                    log.token_at(index) for index in range(log.token_count())
                ]
                ordered = [
                    token.msg_id if isinstance(token, AppValue)
                    else token.request_id
                    for token in tokens
                    if isinstance(token, (AppValue, SubscribeMsg))
                ]
                assert ordered == [
                    first.msg_id, request_id, second.msg_id
                ], name

    run(main())


def test_a_batch_is_deduplicated_token_by_token():
    async def main():
        async with live_cluster() as cluster:
            client = cluster.client
            coordinator = cluster.directory["s1"].config.coordinator
            values = [
                AppValue(payload=f"v{index}", size=8, sender=client.name)
                for index in range(6)
            ]
            first = Propose(stream="s1", token=Batch(tuple(values[:4])))
            # The same frame twice (a resend), then a batch that repeats
            # two values of it next to two the stream has not seen.
            client.send(coordinator, first)
            client.send(coordinator, first)
            client.send(
                coordinator, Propose(stream="s1", token=Batch(tuple(values[2:])))
            )
            sequences = await delivered(cluster, len(values))
            for name, msg_ids in sequences.items():
                assert msg_ids == [value.msg_id for value in values], name
            # A later lone resend of a batched value is a duplicate too.
            client.send(coordinator, Propose(stream="s1", token=values[0]))
            probe = client.multicast("s1", b"probe", 5)
            sequences = await delivered(cluster, len(values) + 1)
            for name, msg_ids in sequences.items():
                assert msg_ids == (
                    [value.msg_id for value in values] + [probe.msg_id]
                ), name

    run(main())
