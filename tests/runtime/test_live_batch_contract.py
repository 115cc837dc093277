"""A batch is serialised once by whoever forms it and parsed once per
process that reads its tokens.

Counts, not timings: a live cluster orders a few hundred values while
the codec's two batch helpers -- ``encode_batch_wire`` (tokens ->
bytes) and ``decode_batch_tokens`` (bytes -> tokens) -- are counted from
outside, each call attributed to the actor whose ``dispatch`` was
running.  The contract of ``runtime/codec.py``:

* two parties form batches.  The client forms a *submission* batch of
  what it multicasts to a stream within one loop turn and serialises it
  once, into the one ``Propose`` that carries it; the coordinator forms
  an *instance* batch and serialises it once, however many frames carry
  it (one ``RingAccept`` on the ring; ``Phase2a`` to each acceptor plus
  a ``Decision`` to each learner and acceptor in classic mode);
* the coordinator parses each submission batch once: it must see every
  token to deduplicate it, which is also why it cannot adopt the bytes
  as its instance batch;
* a ``Decision`` reaches a process once for all the learners it hosts
  (one frame per peer address) and decodes to one ``WireBatch`` they
  share, so each instance is parsed once per *process that hosts
  learners*: with every replica on one node that is one parse per
  delivered instance, with a replica per node it is one per learner;
* acceptors never parse, and the coordinator never parses an instance
  batch: they order, log and forward bytes.
"""

from __future__ import annotations

import asyncio
import collections

import pytest

from repro.multicast.api import MulticastClient
from repro.multicast.replica import MulticastReplica
from repro.paxos.acceptor import AcceptorActor
from repro.paxos.coordinator import CoordinatorActor
from repro.paxos.types import Batch
from repro.runtime import codec
from repro.runtime.supervisor import LiveCluster, LiveConfig

REPLICAS = 3
VALUES = 300
BURST = 50


def _count_batch_helpers(monkeypatch):
    """Patch the codec helpers and the three actors' dispatch; must run
    before the cluster is built (actors bind dispatch at construction)."""
    running: list[str] = []                 # role of the dispatching actor
    parses = collections.Counter()          # role -> token-body parses
    encoded: list = []                      # batches serialised, in order
    submitted: list = []                    # batches the client sent

    def attributed(cls, role):
        dispatch = cls.dispatch

        def traced(self, payload, src):
            running.append(role)
            try:
                return dispatch(self, payload, src)
            finally:
                running.pop()

        monkeypatch.setattr(cls, "dispatch", traced)

    attributed(AcceptorActor, "acceptor")
    attributed(CoordinatorActor, "coordinator")
    attributed(MulticastReplica, "replica")

    real_parse = codec.decode_batch_tokens
    real_encode = codec.encode_batch_wire

    def counting_parse(wire, count):
        parses[running[-1] if running else "outside"] += 1
        return real_parse(wire, count)

    def counting_encode(batch):
        encoded.append(batch)       # keeps the batch alive: ids stay unique
        return real_encode(batch)

    real_send = MulticastClient.send

    def recording_send(self, dst, payload):
        if isinstance(payload.token, Batch):
            submitted.append(payload.token)
        real_send(self, dst, payload)

    monkeypatch.setattr(codec, "decode_batch_tokens", counting_parse)
    monkeypatch.setattr(codec, "encode_batch_wire", counting_encode)
    monkeypatch.setattr(MulticastClient, "send", recording_send)
    return parses, encoded, submitted


async def _order_values(dissemination: str, nodes: int):
    cluster = LiveCluster(LiveConfig(
        streams=1, replicas=REPLICAS, rate=2000.0, drain_timeout=30.0,
        dissemination=dissemination, nodes=nodes,
    ))
    delivered = collections.Counter()
    for name, replica in cluster.replicas.items():
        replica.add_delivery_observer(
            lambda _value, _stream, _position, name=name:
            delivered.update([name])
        )
    await cluster.start()
    try:
        for start in range(0, VALUES, BURST):   # bursts: multi-value batches
            for index in range(start, start + BURST):
                cluster.client.multicast("s1", f"v{index}", 64)
            await asyncio.sleep(0.02)
        deadline = asyncio.get_running_loop().time() + 30.0
        while (min(delivered[name] for name in cluster.replicas) < VALUES
               and asyncio.get_running_loop().time() < deadline):
            await asyncio.sleep(0.01)
        assert await cluster.drain(30.0)
    finally:
        await cluster.stop()
    assert all(delivered[name] == VALUES for name in cluster.replicas)
    return cluster


def _check_contract(monkeypatch, dissemination, nodes):
    parses, encoded, submitted = _count_batch_helpers(monkeypatch)
    cluster = asyncio.run(
        asyncio.wait_for(_order_values(dissemination, nodes), timeout=120)
    )
    coordinator = cluster.directory["s1"].coordinator

    # The client formed one batch per burst (a burst is one loop turn)
    # and the coordinator one per instance; each was serialised once by
    # the party that formed it, whatever the fan-out.
    assert [batch.token_count for batch in submitted] == (
        [BURST] * (VALUES // BURST)
    )
    assert len(encoded) == len(submitted) + coordinator.next_instance
    assert len({id(batch) for batch in encoded}) == len(encoded)
    sent = {id(batch) for batch in submitted}
    assert sent <= {id(batch) for batch in encoded}
    assert sum(
        batch.token_count for batch in encoded if id(batch) not in sent
    ) > VALUES  # + skips

    # The coordinator reads every submitted token (dedup): one parse per
    # submission batch, none of anything else.
    assert parses["coordinator"] == len(submitted)

    # One parse per instance per process that hosts learners: the
    # learners of a node share the decoded batch, so a node parses what
    # its furthest learner delivered -- with R learners that all caught
    # up, decided instances x the nodes that host one.
    learned = {
        name: replica.learners["s1"].delivered_instances
        for name, replica in cluster.replicas.items()
    }
    assert min(learned.values()) > 0
    per_node = [
        max(learned[name] for name in node.replicas)
        for node in cluster.nodes if node.replicas
    ]
    assert len(per_node) == min(nodes, REPLICAS)
    assert parses["replica"] == sum(per_node)
    assert max(learned.values()) <= len(coordinator.decided_instances)
    assert (
        len(per_node) * min(learned.values())
        <= parses["replica"]
        <= len(per_node) * len(coordinator.decided_instances)
    )

    # Acceptors move bytes; so does the coordinator past its intake.
    assert set(parses) == {"replica", "coordinator"}, parses


@pytest.mark.parametrize("dissemination", ["ring", "classic"])
def test_one_serialisation_per_batch_one_parse_per_learner(
    monkeypatch, dissemination
):
    # Every replica behind one address: the learners share each parse.
    _check_contract(monkeypatch, dissemination, nodes=1)


def test_replicas_on_different_nodes_each_parse_their_own_copy(monkeypatch):
    # A replica per node: nothing to share, one parse per learner.
    _check_contract(monkeypatch, "ring", nodes=REPLICAS)
