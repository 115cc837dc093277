"""Paxos learner: in-order delivery of decided instances.

A learner buffers out-of-order decisions, delivers them to its callback
strictly by instance number, and repairs gaps (lost decisions, or a
whole backlog when an Elastic Paxos replica subscribes to an existing
stream) by requesting decided instances from acceptors in pages.

Two packagings of the same logic:

* :class:`LearnerCore` -- transport-agnostic; a replica hosts one core
  per subscribed stream (the "learner tasks" of Algorithm 1) on its own
  network identity;
* :class:`LearnerActor` -- a core with its own host, for deployments
  where the learner is a separate process.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.actor import Actor
from ..runtime.kernel import Kernel, Timer, Transport, every
from .config import StreamConfig
from .messages import Decision, RecoverReply, RecoverRequest
from .types import Batch

__all__ = ["LearnerCore", "LearnerActor"]

# How long delivery may sit behind a gap before the missing range is
# fetched from an acceptor; a lost catch-up request is retried after
# twice this long.
_GAP_TIMEOUT = 0.2


class LearnerCore:
    """In-order decision delivery for one stream.

    ``on_deliver(instance, batch)`` is invoked exactly once per
    instance, in instance order.  ``send(acceptor_name, message)`` is
    how the core reaches acceptors for recovery.
    """

    def __init__(
        self,
        env: Kernel,
        config: StreamConfig,
        on_deliver: Callable[[int, Batch], None],
        send: Callable[[str, object], None],
        on_rebase: Optional[Callable[[int, int], None]] = None,
        start_instance: int = 0,
        owner: str = "",
    ):
        self.env = env
        # Fixed at environment construction; cached for the hot probes.
        self._tracer = env.tracer
        self._metrics = env.metrics
        self.config = config
        self.stream = config.name
        self.on_deliver = on_deliver
        self.send = send
        # Trace/metrics identity of the replica hosting this learner task.
        self.owner = owner or f"learner:{config.name}"
        # Called as on_rebase(first_instance, base_position) when the
        # acceptors' logs were trimmed below our start: the token log
        # must be seeded at the trimmed prefix's position.
        self.on_rebase = on_rebase

        self.next_instance = start_instance
        self.buffer: dict[int, Batch] = {}
        self.delivered_instances = 0
        self.catching_up = False
        self._recover_acceptor_rr = 0
        self._gap_since: Optional[float] = None
        self._recovery_requested_at: Optional[float] = None
        self._recovery_page_start: Optional[int] = None
        self._gap_timer: Optional[Timer] = None

    def start(self) -> None:
        if self._gap_timer is None:
            self._gap_timer = every(
                self.env, _GAP_TIMEOUT, self._gap_repair_tick
            )

    def stop(self) -> None:
        if self._gap_timer is not None:
            self._gap_timer.cancel()
        self._gap_timer = None

    # -- live decisions ----------------------------------------------------

    def on_decision(self, msg: Decision, src: str) -> None:
        self._ingest(msg.instance, msg.batch)

    def _ingest(self, instance: int, batch: Batch) -> None:
        if instance < self.next_instance or instance in self.buffer:
            return  # duplicate (retransmission or recovery overlap)
        self.buffer[instance] = batch
        self._drain()

    def _drain(self) -> None:
        while self.next_instance in self.buffer:
            batch = self.buffer.pop(self.next_instance)
            instance = self.next_instance
            self.next_instance += 1
            self.delivered_instances += 1
            self.on_deliver(instance, batch)
        if not self.buffer:
            self._gap_since = None
        elif self._gap_since is None:
            # Start the gap clock only when the gap first appears: live
            # decisions keep arriving while we are stuck, and refreshing
            # the clock on every ingest would starve the repair forever.
            self._gap_since = self.env._now

    # -- recovery -----------------------------------------------------------

    def start_recovery(self) -> None:
        """Catch up on everything decided so far (new subscriber path)."""
        self.catching_up = True
        self._recovery_requested_at = self.env._now
        self._request_recovery(self.next_instance, -1)

    def _request_recovery(self, from_instance: int, to_instance: int) -> None:
        acceptor = self.config.acceptors[
            self._recover_acceptor_rr % len(self.config.acceptors)
        ]
        self._recover_acceptor_rr += 1
        self._recovery_requested_at = self.env._now
        self._recovery_page_start = from_instance
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "learner.recover.request", self.env._now, owner=self.owner,
                stream=self.stream, from_instance=from_instance,
                to_instance=to_instance, acceptor=acceptor,
            )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(self.owner, "catch_up_pages").record()
        self.send(
            acceptor,
            RecoverRequest(
                stream=self.stream,
                from_instance=from_instance,
                to_instance=to_instance,
            ),
        )

    def on_recover_reply(self, msg: RecoverReply, src: str) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "learner.recover.reply", self.env._now, owner=self.owner,
                stream=self.stream, decided=len(msg.decided),
                trimmed_below=msg.trimmed_below,
            )
        if msg.trimmed_below > self.next_instance:
            if self.delivered_instances > 0:
                raise RuntimeError(
                    f"learner of {self.stream} lost instances "
                    f"[{self.next_instance}, {msg.trimmed_below}): acceptor "
                    "logs were trimmed past an active consumer"
                )
            # Fresh learner: start from the trim horizon; the trimmed
            # prefix's positions are accounted for via the base.
            self.next_instance = msg.trimmed_below
            if self.on_rebase is not None:
                self.on_rebase(msg.trimmed_below, msg.base_position)
        for instance, batch in msg.decided:
            self._ingest(instance, batch)
        if self.catching_up:
            if msg.highest_decided >= self.next_instance and msg.decided:
                # More history remains: fetch the next page -- but only
                # if this reply advanced us past the page we last asked
                # for.  A duplicated reply (the network may duplicate
                # datagrams) must not fork the paging loop: each extra
                # request would draw an extra reply, amplifying
                # exponentially.  Lost replies are retried by the
                # gap-repair timer, so pacing costs no liveness.
                if (
                    self._recovery_page_start is None
                    or self.next_instance > self._recovery_page_start
                ):
                    self._request_recovery(self.next_instance, -1)
            else:
                self.catching_up = False

    # -- gap repair -----------------------------------------------------------

    def _gap_repair_tick(self) -> None:
        """Repair holes left by lost decision messages.

        If delivery has been stuck behind a gap for longer than
        ``_GAP_TIMEOUT`` while later instances sit in the buffer, fetch
        every hole below the highest buffered instance in one request:
        the acceptor answers only decided instances, and ``_ingest``
        drops the ones already held.
        """
        if self.catching_up:
            # The catch-up request (or its reply) may have been lost
            # in a partition: retry towards another acceptor.
            if (
                self._recovery_requested_at is not None
                and self.env._now - self._recovery_requested_at
                >= 2 * _GAP_TIMEOUT
            ):
                self._request_recovery(self.next_instance, -1)
            return
        if not self.buffer:
            return
        if (
            self._gap_since is not None
            and self.env._now - self._gap_since >= _GAP_TIMEOUT
        ):
            gap_end = max(self.buffer)
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    "learner.gap_repair", self.env._now, owner=self.owner,
                    stream=self.stream, from_instance=self.next_instance,
                    to_instance=gap_end,
                )
            metrics = self._metrics
            if metrics is not None:
                metrics.counter(self.owner, "gap_repairs").record()
            self._request_recovery(self.next_instance, gap_end)
            self._gap_since = self.env._now


class LearnerActor(Actor):
    """A standalone learner process (its own host) for one stream."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        config: StreamConfig,
        on_deliver: Callable[[int, Batch], None],
    ):
        super().__init__(env, network, name)
        self.core = LearnerCore(env, config, on_deliver, send=self.send)

    def start(self) -> None:
        super().start()
        self.core.start()

    def stop(self) -> None:
        super().stop()
        self.core.stop()

    def start_recovery(self) -> None:
        self.core.start_recovery()

    @property
    def next_instance(self) -> int:
        return self.core.next_instance

    @property
    def delivered_instances(self) -> int:
        return self.core.delivered_instances

    def on_decision(self, msg: Decision, src: str) -> None:
        self.core.on_decision(msg, src)

    def on_recover_reply(self, msg: RecoverReply, src: str) -> None:
        self.core.on_recover_reply(msg, src)
