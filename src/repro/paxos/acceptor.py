"""Paxos acceptor: sans-io core and simulated actor.

The core (:class:`AcceptorCore`) is a pure state machine -- message in,
list of ``(destination, message)`` effects out -- which keeps the safety
logic unit-testable and lets property-based tests drive adversarial
schedules directly.  :class:`AcceptorActor` binds a core to a simulated
host, paying stable-storage latency before any promise/acceptance is
answered.

Acceptors also serve *recovery*: they remember decided instances (until
trimmed) and answer :class:`RecoverRequest`, which is how an Elastic
Paxos replica catches up on a newly subscribed stream.
"""

from __future__ import annotations

from typing import Optional

from ..net.actor import Actor
from ..runtime.kernel import Kernel, Transport
from ..storage.log import AcceptorLog
from ..storage.stable import StableStore
from .messages import (
    Decision,
    Heartbeat,
    HeartbeatAck,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    RecoverReply,
    RecoverRequest,
    RingAccept,
    Trim,
)

__all__ = ["AcceptorCore", "AcceptorActor"]

# Recovery replies are paginated so that one giant reply does not
# monopolise a link; this is also what paces a recovering subscriber.
RECOVERY_PAGE_INSTANCES = 100


class AcceptorCore:
    """Pure Paxos acceptor state machine for one stream."""

    # ``ring`` is a property so the per-message ring lookup (our index,
    # our successor) is computed once per reconfiguration instead of
    # once per RingAccept.
    @property
    def ring(self) -> tuple[str, ...]:
        return self._ring

    @ring.setter
    def ring(self, value) -> None:
        self._ring = tuple(value)
        if self.name in self._ring:
            index = self._ring.index(self.name)
            self._ring_member = True
            self._ring_next = (
                self._ring[index + 1]
                if index + 1 < len(self._ring)
                else None
            )
        else:
            self._ring_member = False
            self._ring_next = None

    def __init__(self, name: str, stream: str, ring: tuple[str, ...] = ()):
        self.name = name
        self.stream = stream
        self.ring = tuple(ring)        # acceptor names in ring order
        self.promised = -1             # highest promised ballot (all instances)
        self.log = AcceptorLog()
        # Scratch effect list reused by the hot accept handlers; every
        # caller (the actor, the unit and property tests) consumes the
        # effects before invoking another handler on this core, so one
        # shared buffer per core is safe and saves a list allocation
        # per accepted message.
        self._effects: list[tuple[str, object]] = []
        # Stream positions covered by trimmed instances: a learner that
        # recovers after a trim seeds its token log at this base so that
        # position arithmetic (the merge's logical clock) stays absolute.
        self.positions_trimmed = 0

    # -- classic phases ---------------------------------------------------

    def on_phase1a(self, msg: Phase1a, src: str) -> list[tuple[str, object]]:
        if msg.ballot <= self.promised:
            return []  # stale ballot: ignore (sender will retry higher)
        self.promised = msg.ballot
        log = self.log
        accepted = tuple(
            (instance, entry.vrnd, entry.value)
            for instance in range(msg.from_instance, log.highest_instance + 1)
            if (entry := log.get(instance)) is not None and entry.vrnd >= 0
        )
        reply = Phase1b(
            stream=self.stream,
            ballot=msg.ballot,
            acceptor=self.name,
            accepted=accepted,
        )
        return [(src, reply)]

    def on_phase2a(self, msg: Phase2a, src: str) -> list[tuple[str, object]]:
        if msg.ballot < self.promised:
            return []
        self.promised = msg.ballot
        self.log.accept(msg.instance, msg.ballot, msg.batch)
        reply = Phase2b(
            stream=self.stream,
            ballot=msg.ballot,
            instance=msg.instance,
            acceptor=self.name,
        )
        effects = self._effects
        effects.clear()
        effects.append((src, reply))
        return effects

    # -- ring dissemination ------------------------------------------------

    def on_ring_accept(self, msg: RingAccept, src: str) -> list[tuple[str, object]]:
        """Accept and forward around the ring.

        The last acceptor in the ring observes that every ring member
        has accepted and emits nothing here -- deciding (and notifying
        learners) is the actor's job because the learner set lives there.
        """
        if msg.ballot < self.promised:
            return []
        self.promised = msg.ballot
        self.log.accept(msg.instance, msg.ballot, msg.batch)
        if not self._ring_member:
            raise ValueError(f"{self.name} is not a ring member")
        forwarded = RingAccept(
            stream=msg.stream,
            ballot=msg.ballot,
            instance=msg.instance,
            batch=msg.batch,
            accepted_by=msg.accepted_by + 1,
        )
        effects = self._effects
        effects.clear()
        ring_next = self._ring_next
        if ring_next is not None:
            effects.append((ring_next, forwarded))
            return effects
        # Ring complete: every acceptor accepted => decided.
        self.log.mark_decided(msg.instance)
        effects.append(("__decided__", forwarded))
        return effects

    # -- learning & recovery -------------------------------------------------

    def on_decision(self, msg: Decision, src: str) -> list[tuple[str, object]]:
        entry = self.log.entry(msg.instance)
        if entry.value is None:
            entry.value = msg.batch
            entry.vrnd = max(entry.vrnd, 0)
        entry.decided = True
        return []

    def on_recover_request(self, msg: RecoverRequest, src: str) -> list[tuple[str, object]]:
        """Answer with one page of decided instances."""
        start = max(msg.from_instance, self.log.trimmed_below)
        stop = self.log.highest_instance + 1
        if msg.to_instance >= 0:
            stop = min(stop, msg.to_instance)
        decided = []
        instance = start
        while instance < stop and len(decided) < RECOVERY_PAGE_INSTANCES:
            if self.log.is_decided(instance):
                decided.append((instance, self.log.decided_value(instance)))
            instance += 1
        highest_decided = -1
        for i in self.log.decided_instances():
            highest_decided = i
        reply = RecoverReply(
            stream=self.stream,
            decided=tuple(decided),
            trimmed_below=self.log.trimmed_below,
            highest_decided=highest_decided,
            base_position=self.positions_trimmed,
        )
        return [(src, reply)]

    def on_trim(self, msg: Trim, src: str) -> list[tuple[str, object]]:
        decided = self.log.decided_instances()
        # Only a decided prefix may go: trimming an undecided instance
        # could lose an accepted value a future quorum needs.
        expected = self.log.trimmed_below
        for instance in decided:
            if instance != expected:
                break
            expected = instance + 1
        safe = min(msg.below, expected)
        if safe > self.log.trimmed_below:
            for instance in range(self.log.trimmed_below, safe):
                if self.log.is_decided(instance):
                    self.positions_trimmed += self.log.decided_value(
                        instance
                    ).positions()
            self.log.trim(safe)
        return []


class AcceptorActor(Actor):
    """An acceptor process on the simulated network."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        stream: str,
        ring: tuple[str, ...] = (),
        store: Optional[StableStore] = None,
        recovery_instance_cost: float = 0.0,
    ):
        super().__init__(env, network, name)
        self.core = AcceptorCore(name, stream, ring)
        self.store = store or StableStore(env)
        # Models the cost of reading old instances back for recovery
        # (URingPaxos scans its on-disk log); creates the realistic
        # pause while a new subscriber catches up.
        self.recovery_instance_cost = recovery_instance_cost
        # Set by the deployment: who learns decisions in ring mode.
        self.decision_targets: list[str] = []
        # Bound once; rebuilding this dict per message dominates the
        # dispatch cost on ring-accept-heavy runs.
        self._handler_map = {
            Phase1a: self.core.on_phase1a,
            Phase2a: self.core.on_phase2a,
            RingAccept: self.core.on_ring_accept,
            Decision: self.core.on_decision,
            Trim: self.core.on_trim,
        }
        self._persist_types = frozenset((Phase1a, Phase2a, RingAccept))

    def dispatch(self, payload, src):
        cls = type(payload)
        handler = self._handler_map.get(cls)
        if handler is None:
            if isinstance(payload, RecoverRequest):
                self._serve_recovery(payload, src)
                return
            if isinstance(payload, Heartbeat):
                self.send(src, HeartbeatAck(nonce=payload.nonce))
                return
            raise NotImplementedError(
                f"acceptor {self.name} cannot handle {payload!r}"
            )
        effects = handler(payload, src)
        needs_persist = cls in self._persist_types
        if needs_persist and not self.store.is_instantaneous:
            size = payload.wire_size()
            done = self.store.write(size)
            # Snapshot: ``effects`` may be the core's reused scratch
            # list, clobbered by the next dispatch before this write
            # completes.
            done.callbacks.append(lambda _e, eff=tuple(effects): self._emit(eff))
        else:
            if needs_persist:
                self.store.write_nowait(payload.wire_size())
            self._emit(effects)

    def _emit(self, effects) -> None:
        for dst, message in effects:
            if dst == "__decided__":
                # Last acceptor in the ring: fan the decision out.
                decision = Decision(
                    stream=message.stream,
                    instance=message.instance,
                    batch=message.batch,
                )
                name = self.name
                self.send_all(
                    [t for t in self.decision_targets if t != name], decision
                )
            else:
                self.send(dst, message)

    def _serve_recovery(self, request: RecoverRequest, src: str) -> None:
        effects = self.core.on_recover_request(request, src)
        (dst, reply) = effects[0]
        cost = self.recovery_instance_cost * max(1, len(reply.decided))
        if cost > 0:
            self.env.call_later(cost, self.send, dst, reply)
        else:
            self.send(dst, reply)
