"""The dynamic atomic multicast interface (§III-A and §IV-B).

The paper's abstraction has four client-facing primitives:

* ``multicast(S, m)`` -- submit message ``m`` to stream ``S``;
* ``deliver(m)`` -- replicas receive messages (see
  :class:`repro.multicast.replica.MulticastReplica`);
* ``subscribe_msg(G, S)`` / ``unsubscribe_msg(G, S)`` -- the dynamic
  subscription extension Elastic Paxos introduces.

:class:`MulticastClient` implements the submission side as an actor:
it resolves the coordinator of a stream through the stream directory
and sends :class:`repro.paxos.messages.Propose` messages over the
network, so client-to-coordinator latency is part of every measurement.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..net.actor import Actor
from ..paxos.messages import Propose
from ..paxos.types import (
    AppValue,
    PrepareMsg,
    SubscribeMsg,
    UnsubscribeMsg,
    fresh_value_id,
)
from ..runtime.kernel import Kernel, Transport
from .stream import StreamDeployment

__all__ = ["MulticastClient"]


class MulticastClient(Actor):
    """Submits application and control messages to streams."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        directory: Mapping[str, StreamDeployment],
    ):
        super().__init__(env, network, name)
        self.directory = directory

    def _coordinator_of(self, stream: str) -> str:
        try:
            deployment = self.directory[stream]
        except KeyError:
            raise KeyError(f"unknown stream {stream!r}") from None
        return deployment.config.coordinator

    # -- application messages -------------------------------------------------

    def multicast(self, stream: str, payload, size: int = 128) -> AppValue:
        """Multicast ``payload`` to ``stream``; returns the value whose
        ``msg_id`` replies can be matched against."""
        value = AppValue(payload=payload, size=size, sender=self.name)
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "client.submit", self.env.now,
                (self.name, stream, value.msg_id, size),
            )
        self.send(self._coordinator_of(stream), Propose(stream=stream, token=value))
        return value

    # -- dynamic subscriptions (§IV-B) -------------------------------------------

    def subscribe_msg(self, group: str, new_stream: str, via_stream: str) -> int:
        """Subscribe ``group`` to ``new_stream``.

        The request is atomically multicast to *both* the new stream and
        ``via_stream`` (a stream the group currently subscribes to);
        the two copies share a request id, which is how the dMerge
        matches them to compute the merge point.
        """
        if new_stream == via_stream:
            raise ValueError("new stream and via stream must differ")
        request_id = fresh_value_id()
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "control.subscribe", self.env.now, client=self.name,
                group=group, stream=new_stream, via=via_stream,
                request_id=request_id,
            )
        for stream in (via_stream, new_stream):
            message = SubscribeMsg(
                group=group, stream=new_stream, request_id=request_id
            )
            self.send(
                self._coordinator_of(stream),
                Propose(stream=stream, token=message),
            )
        return request_id

    def unsubscribe_msg(
        self, group: str, stream: str, via_stream: Optional[str] = None
    ) -> int:
        """Unsubscribe ``group`` from ``stream``.

        A single copy ordered in any subscribed stream suffices (a total
        order over the group's streams already exists); by default it is
        ordered in the stream being unsubscribed.
        """
        request_id = fresh_value_id()
        carrier = via_stream if via_stream is not None else stream
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "control.unsubscribe", self.env.now, client=self.name,
                group=group, stream=stream, via=carrier,
                request_id=request_id,
            )
        message = UnsubscribeMsg(group=group, stream=stream, request_id=request_id)
        self.send(
            self._coordinator_of(carrier),
            Propose(stream=carrier, token=message),
        )
        return request_id

    def prepare_msg(self, group: str, new_stream: str, via_stream: str) -> int:
        """Send the §V-C hint: replicas of ``group`` should start
        recovering ``new_stream`` in the background."""
        request_id = fresh_value_id()
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "control.prepare", self.env.now, client=self.name,
                group=group, stream=new_stream, via=via_stream,
                request_id=request_id,
            )
        message = PrepareMsg(group=group, stream=new_stream, request_id=request_id)
        self.send(
            self._coordinator_of(via_stream),
            Propose(stream=via_stream, token=message),
        )
        return request_id
