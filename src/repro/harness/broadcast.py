"""Atomic-broadcast application used by the Fig. 3 and Fig. 5 setups.

The paper's vertical-scalability and reconfiguration experiments run a
bare SMR service: client threads send 32 KiB values, replicas deliver
them through the (elastic) merge and acknowledge back to the client.
Throughput is measured at the replicas, attributed to the stream each
value was ordered in -- exactly the per-stream series the figures plot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from ..multicast.replica import MulticastReplica
from ..multicast.stream import StreamDeployment
from ..net.actor import Actor
from ..net.messages import FastMessage, Message, WIRE_HEADER_BYTES
from ..paxos.messages import Propose
from ..paxos.types import AppValue
from ..sim.core import _PENDING, AnyOf, Environment, Interrupt
from ..sim.monitor import Counter, Series
from ..sim.network import Network
from ..sim.resources import Server

__all__ = ["BroadcastReplica", "BroadcastClient", "DeliveryAck"]


class DeliveryAck(FastMessage):
    """Replica -> client acknowledgement of one delivered value."""

    __slots__ = ("msg_id", "replica")
    _FIELDS = ("msg_id", "replica")

    def __init__(self, msg_id: int, replica: str):
        self.msg_id = msg_id
        self.replica = replica

    def wire_size(self) -> int:
        return WIRE_HEADER_BYTES + 16


class BroadcastReplica(MulticastReplica):
    """Delivers values, pays CPU per value, and acks the sender."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        name: str,
        group: str,
        directory: Mapping[str, StreamDeployment],
        cpu_rate: float = 2800.0,
    ):
        super().__init__(env, network, name, group, directory)
        self.cpu = Server(env, rate=cpu_rate, name=f"{name}:cpu")
        self.delivered_ops = Counter(env, f"{name}:delivered")
        self.per_stream_ops: dict[str, Counter] = {}

    def stream_counter(self, stream: str) -> Counter:
        counter = self.per_stream_ops.get(stream)
        if counter is None:
            counter = self.per_stream_ops[stream] = Counter(
                self.env, f"{self.name}:{stream}"
            )
        return counter

    def apply(self, value: AppValue, stream: str, position: int) -> None:
        self.delivered_ops.record()
        self.stream_counter(stream).record()
        done = self.cpu.request(1.0)
        if value.sender:
            ack = DeliveryAck(msg_id=value.msg_id, replica=self.name)
            done.callbacks.append(lambda _e: self.send(value.sender, ack))


class BroadcastClient(Actor):
    """Closed-loop client threads pinned to one stream each.

    The paper's Fig. 3 client runs "5 threads per stream": threads for a
    stream are started when the stream is added.  A thread submits one
    value, waits for the first replica ack (with a timeout for lost
    values), records latency, optionally thinks, and repeats.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        name: str,
        directory: Mapping[str, StreamDeployment],
        value_size: int = 32 * 1024,
        timeout: float = 2.0,
        think_time: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(env, network, name)
        self.directory = directory
        self.value_size = value_size
        self.timeout = timeout
        self.think_time = think_time
        self.rng = rng or random.Random(0)

        self.ops = Counter(env, f"{name}:ops")
        self.latency = Series(env, f"{name}:latency")
        self.timeouts = 0
        self._pending: dict[int, object] = {}
        self._workers: list = []
        self._retargets: dict[str, str] = {}

    def start_threads(self, stream: str, count: int) -> None:
        """Start ``count`` closed-loop threads submitting to ``stream``."""
        if not self.running:
            self.start()
        for _ in range(count):
            self._workers.append(self.env.process(self._worker(stream)))

    def stop_threads(self) -> None:
        for worker in self._workers:
            if worker.is_alive:
                worker.interrupt("stop")
        self._workers = []

    def retarget(self, old_stream: str, new_stream: str) -> None:
        """Move all threads from one stream to another (reconfiguration:
        after the switch, clients must submit to the new stream)."""
        self._retargets[old_stream] = new_stream

    def _target_of(self, stream: str) -> str:
        retargets = self._retargets
        while stream in retargets:
            stream = retargets[stream]
        return stream

    def _worker(self, stream: str):
        # The tracer is fixed for the environment's lifetime; hoist the
        # per-attempt lookups out of the submission loop.
        env = self.env
        tracer = env.tracer
        try:
            while True:
                target = self._target_of(stream)
                started = env._now
                while True:
                    # A fresh value per attempt: coordinators order each
                    # msg_id at most once (wire-duplicate dedup), so a
                    # retry after a timeout must be a new submission --
                    # e.g. when the original was ordered below a merge
                    # point and discarded by the subscription scan.
                    value = AppValue(
                        payload=None, size=self.value_size, sender=self.name
                    )
                    done = env.event()
                    self._pending[value.msg_id] = done
                    coordinator = self.directory[target].config.coordinator
                    if tracer is not None:
                        tracer.emit(
                            "client.submit", self.env._now,
                            (self.name, target, value.msg_id,
                             self.value_size),
                        )
                    self.send(coordinator, Propose(stream=target, token=value))
                    expiry = env.timeout(self.timeout)
                    yield AnyOf(env, [done, expiry])
                    if done._value is not _PENDING:   # done.triggered
                        break
                    self._pending.pop(value.msg_id, None)
                    self.timeouts += 1
                    if tracer is not None:
                        tracer.emit(
                            "client.timeout", self.env._now, client=self.name,
                            stream=target, msg_id=value.msg_id,
                        )
                    metrics = self.env.metrics
                    if metrics is not None:
                        metrics.counter(self.name, "timeouts").record()
                    target = self._target_of(target)
                self.ops.record()
                self.latency.record(env._now - started)
                if tracer is not None:
                    tracer.emit(
                        "client.ack", self.env._now, client=self.name,
                        msg_id=value.msg_id, latency=self.env._now - started,
                    )
                if self.think_time > 0:
                    yield self.env.timeout(self.think_time)
        except Interrupt:
            return

    def on_delivery_ack(self, msg: DeliveryAck, src: str) -> None:
        done = self._pending.pop(msg.msg_id, None)
        if done is not None:
            done.succeed(msg.replica)
