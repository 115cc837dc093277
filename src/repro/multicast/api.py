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

The client is the proposer of Ring Paxos, and like it batches: whatever
it submits to one stream before the transport next writes (one event
loop turn on the live runtime, nothing on the simulator, see
``Transport.defer``) travels as one ``Propose`` carrying a
:class:`~repro.paxos.types.Batch` of the tokens in submission order --
values and control messages alike, so a stream sees one client's
submissions in the order they were made.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..net.actor import Actor
from ..paxos.messages import Propose
from ..paxos.types import (
    AppValue,
    Batch,
    PrepareMsg,
    SubscribeMsg,
    UnsubscribeMsg,
    fresh_value_id,
)
from ..runtime.kernel import Kernel, Transport
from .stream import StreamDeployment

__all__ = ["MulticastClient", "SUBMISSION_BATCH_BYTES"]

# A submission batch carries at most this much payload (and never more
# than the stream's ``batch_max_bytes``).  Deliberately a fraction of
# the instance cap: a coordinator pumps once per ``Propose``, so a
# submission that fills a whole instance turns every hop into
# store-and-forward of one cap-sized convoy -- 64 closed-loop callers
# of 8 KiB values settle into two convoys of 32 and deliver 10% *less*
# than unbatched, against 13% more at this size (docs/PERFORMANCE.md).
# 64 KiB is one loopback segment and asyncio's write high-water mark.
SUBMISSION_BATCH_BYTES = 64 * 1024


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
        # stream -> tokens submitted since the transport last wrote.
        self._outbox: dict[str, list] = {}

    def _submit(self, stream: str, token) -> None:
        """Queue ``token`` for ``stream``; the first submission after a
        write asks the transport to collect the outbox before the next."""
        if stream not in self.directory:
            raise KeyError(f"unknown stream {stream!r}")
        outbox = self._outbox
        first = not outbox
        tokens = outbox.get(stream)
        if tokens is None:
            outbox[stream] = [token]
        else:
            tokens.append(token)
        if first:
            self.network.defer(self._send_outbox)

    def _send_outbox(self) -> None:
        """One ``Propose`` per stream for what was submitted to it, cut
        where the tokens would exceed :data:`SUBMISSION_BATCH_BYTES`."""
        outbox, self._outbox = self._outbox, {}
        for stream, tokens in outbox.items():
            config = self.directory[stream].config
            max_bytes = min(config.batch_max_bytes, SUBMISSION_BATCH_BYTES)
            start = nbytes = 0
            for index, token in enumerate(tokens):
                size = getattr(token, "size", 0)
                if index > start and nbytes + size > max_bytes:
                    self._propose(stream, config, tokens[start:index])
                    start, nbytes = index, 0
                nbytes += size
            self._propose(stream, config, tokens[start:])

    def _propose(self, stream: str, config, tokens: list) -> None:
        """``tokens`` to the stream's coordinator: a lone token as it
        always went, more as a :class:`Batch` of them."""
        token = tokens[0] if len(tokens) == 1 else Batch(tuple(tokens))
        self.send(config.coordinator, Propose(stream=stream, token=token))

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
        self._submit(stream, value)
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
            self._submit(stream, message)
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
        self._submit(carrier, message)
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
        self._submit(via_stream, message)
        return request_id
