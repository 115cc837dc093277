"""Simulated message-passing network.

Models the virtualized, TCP-tunnelled network of the paper's OpenStack
deployment:

* per-link propagation latency (base + optional seeded jitter),
* per-link serialisation bandwidth (a link transmits one message at a
  time, so saturated links queue -- this is what caps a Paxos stream's
  throughput),
* FIFO per-link delivery (TCP ordering),
* lossy links and network partitions for fault injection,
* crashed hosts silently drop traffic, as a crashed OS would.

Hosts are looked up by name.  Each host owns an unbounded inbox
(:class:`repro.sim.queues.Store`) from which its actor's mailbox
(:class:`repro.sim.queues.Mailbox`) drains :class:`Envelope` objects.
A message is two calendar entries: its arrival, scheduled here, and --
when the receiver's mailbox is parked -- its handling at that instant.

Hot path: :meth:`Network.send` compiles the per-``(src, dst)`` routing
decision -- host objects, link spec, matching fault rules, partition
membership -- into a cached dispatch entry the first time a pair is
used, so the common no-fault send is one dict hit instead of a rule
scan.  Every mutation of the routing state (``set_link``, ``add_fault``
/ ``remove_fault``, ``partition`` / ``unpartition`` / ``heal``)
invalidates the cache.  The order of RNG draws is identical to the
uncompiled path, so seeded runs stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from heapq import heappush

from ..runtime.kernel import Envelope
from .core import Environment, _ScheduledCall
from .queues import Store
from .rng import RngRegistry

__all__ = ["Envelope", "FaultRule", "Host", "Network", "LinkSpec"]


_tuple_new = tuple.__new__


@dataclass(slots=True)
class LinkSpec:
    """Transmission characteristics of a directed link."""

    latency: float = 0.0005          # one-way propagation delay (seconds)
    jitter: float = 0.0              # max uniform jitter added to latency
    bandwidth: Optional[float] = None  # bytes/second; None = infinite
    loss: float = 0.0                # independent drop probability


@dataclass(slots=True)
class FaultRule:
    """A transient fault overlay applied on top of the link specs.

    Rules are installed/removed dynamically (the fault orchestrator uses
    them to realise loss windows, delay spikes, duplication and
    reordering windows).  ``src``/``dst`` restrict the rule to matching
    directed traffic; ``None`` matches any host.

    Duplicated and reordered copies model datagram-level anomalies and
    deliberately bypass the per-link TCP FIFO guarantee -- that is the
    point of injecting them.
    """

    src: Optional[frozenset[str]] = None   # None = any sender
    dst: Optional[frozenset[str]] = None   # None = any receiver
    loss: float = 0.0                      # extra drop probability
    extra_latency: float = 0.0             # added propagation delay
    duplicate: float = 0.0                 # probability of a second copy
    reorder: float = 0.0                   # probability FIFO is bypassed
    reorder_spread: float = 0.01           # max lead/lag of a reordered msg

    @staticmethod
    def _selector(names: Optional[Iterable[str]]) -> Optional[frozenset[str]]:
        if names is None:
            return None
        if isinstance(names, str):
            return frozenset((names,))
        return frozenset(names)

    def __post_init__(self) -> None:
        self.src = self._selector(self.src)
        self.dst = self._selector(self.dst)

    def matches(self, src: str, dst: str) -> bool:
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        return True


class Host:
    """A named node with an inbox and a crash flag.

    ``incarnation`` counts reboots: it is bumped on every crash so the
    network can discard envelopes that were in flight across a crash
    (a rebooted OS resets its TCP connections; packets of the old
    incarnation never reach the new process).
    """

    __slots__ = ("env", "name", "inbox", "crashed", "incarnation", "actor")

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.inbox: Store = Store(env)
        self.crashed = False
        self.incarnation = 0
        # Back-reference to the protocol actor bound to this host (set
        # by net.actor.Actor); fault injectors use it to crash the
        # process, not just the box.
        self.actor: Optional[Any] = None

    def crash(self) -> None:
        """Crash the host: drop its queued inbox and future traffic."""
        self.crashed = True
        self.incarnation += 1
        self.inbox = Store(self.env)

    def recover(self) -> None:
        """Bring the host back with an empty inbox (volatile state lost)."""
        self.crashed = False
        self.inbox = Store(self.env)

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"<Host {self.name} ({state})>"


class _LinkState:
    """Mutable per-directed-link serialisation & FIFO state.

    Lives in a persistent registry (never cleared on route-cache
    invalidation): the transmission horizon and FIFO arrival horizon of
    a link must survive fault-rule and topology changes.
    """

    __slots__ = ("busy_until", "last_arrival")

    def __init__(self):
        self.busy_until = 0.0
        self.last_arrival = 0.0


class _Route:
    """Compiled routing decision for one directed ``(src, dst)`` pair.

    Everything that is a pure function of the topology/fault state is
    resolved once; only crash flags (read live off the host objects) and
    the RNG draws happen per send.  ``state`` is the link's persistent
    mutable state, resolved here so the send path needs no key-tuple
    allocation or dict probe.
    """

    __slots__ = ("sender", "receiver", "spec", "rules", "partitioned", "state")

    def __init__(self, sender, receiver, spec, rules, partitioned, state):
        self.sender = sender
        self.receiver = receiver
        self.spec = spec
        self.rules = rules              # tuple of matching FaultRules
        self.partitioned = partitioned
        self.state = state


class Network:
    """Routes messages between hosts with latency/bandwidth/loss models."""

    def __init__(
        self,
        env: Environment,
        rng: Optional[RngRegistry] = None,
        default_link: Optional[LinkSpec] = None,
    ):
        self.env = env
        # env.tracer is fixed at environment construction; pre-apply the
        # wants_net gate so every per-packet probe is one attribute load.
        tracer = env.tracer
        self._net_tracer = (
            tracer if tracer is not None and tracer.wants_net else None
        )
        self._rng = (rng or RngRegistry(0)).stream("network")
        self.default_link = default_link or LinkSpec()
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], LinkSpec] = {}
        # Per-directed-link state for serialisation & FIFO delivery;
        # persists across route-cache invalidations.
        self._link_state: dict[tuple[str, str], _LinkState] = {}
        self._partitions: set[frozenset[str]] = set()
        self._fault_rules: list[FaultRule] = []
        # (src, dst) -> compiled _Route; flushed on any routing change.
        # Nested by source: avoids allocating a (src, dst) key tuple
        # on every send.
        self._routes: dict[str, dict[str, _Route]] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        self.bytes_delivered = 0

    # -- topology -----------------------------------------------------

    def add_host(self, name: str) -> Host:
        """Register (or return the existing) host called ``name``."""
        if name not in self._hosts:
            self._hosts[name] = Host(self.env, name)
        return self._hosts[name]

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def set_link(self, src: str, dst: str, spec: LinkSpec) -> None:
        """Override characteristics of the directed link src -> dst."""
        self._links[(src, dst)] = spec
        self._routes.clear()

    def link(self, src: str, dst: str) -> LinkSpec:
        return self._links.get((src, dst), self.default_link)

    # -- fault injection ----------------------------------------------

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Block all traffic between the two host groups."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))
        self._routes.clear()
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "net.partition", self.env.now, cat="fault",
                side_a=sorted(group_a), side_b=sorted(group_b),
            )

    def unpartition(self, group_a: set[str], group_b: set[str]) -> None:
        """Heal exactly the cut between the two host groups.

        Overlapping partition windows stay intact -- only the pairs
        named here are reconnected (``heal`` wipes everything).
        """
        for a in group_a:
            for b in group_b:
                self._partitions.discard(frozenset((a, b)))
        self._routes.clear()
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "net.unpartition", self.env.now, cat="fault",
                side_a=sorted(group_a), side_b=sorted(group_b),
            )

    def heal(self) -> None:
        """Remove all partitions."""
        self._partitions.clear()
        self._routes.clear()
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("net.heal", self.env.now, cat="fault")

    def is_partitioned(self, a: str, b: str) -> bool:
        return bool(self._partitions) and frozenset((a, b)) in self._partitions

    def add_fault(self, rule: FaultRule) -> FaultRule:
        """Install a transient fault overlay; returns it for removal."""
        self._fault_rules.append(rule)
        self._routes.clear()
        return rule

    def remove_fault(self, rule: FaultRule) -> None:
        """Remove a previously installed fault overlay (idempotent)."""
        try:
            self._fault_rules.remove(rule)
        except ValueError:
            pass
        self._routes.clear()

    # -- sending ------------------------------------------------------

    def _trace_drop(self, src: str, dst: str, payload: Any, reason: str) -> None:
        tracer = self._net_tracer
        if tracer is not None:
            tracer.emit(
                "net.drop", self.env.now, src=src, dst=dst,
                type=type(payload).__name__, reason=reason,
            )

    def _compile_route(self, src: str, dst: str) -> _Route:
        key = (src, dst)
        state = self._link_state.get(key)
        if state is None:
            state = self._link_state[key] = _LinkState()
        route = _Route(
            sender=self.host(src),
            receiver=self.host(dst),
            spec=self.link(src, dst),
            rules=tuple(r for r in self._fault_rules if r.matches(src, dst)),
            partitioned=self.is_partitioned(src, dst),
            state=state,
        )
        by_dst = self._routes.get(src)
        if by_dst is None:
            by_dst = self._routes[src] = {}
        by_dst[dst] = route
        return route

    def send(self, src: str, dst: str, payload: Any, size: int = 128) -> None:
        """Send ``payload`` from ``src`` to ``dst``.

        Fire-and-forget, like a datagram handed to the kernel: the call
        returns immediately and delivery is scheduled in the future (or
        the message is dropped).  ``size`` is the wire size in bytes.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        self.messages_sent += 1
        by_dst = self._routes.get(src)
        route = by_dst.get(dst) if by_dst is not None else None
        if route is None:
            route = self._compile_route(src, dst)
        if route.sender.crashed or route.receiver.crashed or route.partitioned:
            self.messages_dropped += 1
            reason = (
                "src_crashed" if route.sender.crashed
                else "dst_crashed" if route.receiver.crashed
                else "partitioned"
            )
            self._trace_drop(src, dst, payload, reason)
            return
        tracer = self._net_tracer
        if tracer is not None:
            tracer.emit(
                "net.send", self.env.now, src=src, dst=dst,
                type=type(payload).__name__, size=size,
            )
        spec = route.spec
        if spec.loss > 0 and self._rng.random() < spec.loss:
            self.messages_dropped += 1
            self._trace_drop(src, dst, payload, "link_loss")
            return
        rules = route.rules
        for rule in rules:
            if rule.loss > 0 and self._rng.random() < rule.loss:
                self.messages_dropped += 1
                self._trace_drop(src, dst, payload, "fault_loss")
                return
        now = self.env._now
        state = route.state
        if spec.bandwidth is not None:
            start = state.busy_until
            if start < now:
                start = now
            tx_done = start + size / spec.bandwidth
            state.busy_until = tx_done
        else:
            tx_done = now
        latency = spec.latency
        if spec.jitter > 0:
            latency += self._rng.uniform(0.0, spec.jitter)
        if rules:
            for rule in rules:
                latency += rule.extra_latency
        arrival = tx_done + latency
        # Injected reordering: the message escapes the TCP FIFO -- its
        # arrival is perturbed by up to ``reorder_spread`` in either
        # direction and neither respects nor advances the link's FIFO
        # horizon, so it may overtake (or be overtaken by) neighbours.
        reordered = rules and any(
            rule.reorder > 0 and self._rng.random() < rule.reorder
            for rule in rules
        )
        if reordered:
            spread = max(r.reorder_spread for r in rules if r.reorder > 0)
            arrival = max(now, arrival + self._rng.uniform(-spread, spread))
            self.messages_reordered += 1
        else:
            # TCP-like FIFO per link: never deliver before a prior message.
            if arrival < state.last_arrival:
                arrival = state.last_arrival
            state.last_arrival = arrival
        # ``tuple.__new__`` directly: the NamedTuple-generated __new__ is
        # a Python-level lambda and its frame shows up in profiles at
        # this call rate.  Field order matches the Envelope declaration.
        envelope = _tuple_new(Envelope, (
            src, dst, payload, size, now, arrival,
            route.receiver.incarnation, False,
        ))
        # Inlined env._schedule_call: one per send makes the method-call
        # overhead measurable.  ``now + (arrival - now)`` keeps the exact
        # floating-point schedule time the un-inlined path produced.
        env = self.env
        pool = env._call_pool
        if pool:
            call = pool.pop()
            call.fn = self._deliver
            call.args = (envelope,)
        else:
            call = _ScheduledCall(self._deliver, (envelope,))
        when = now + (arrival - now)
        if when == now:
            env._fifo.append((when, next(env._counter), call))
        else:
            heappush(env._queue, (when, next(env._counter), call))
        for rule in rules:
            if rule.duplicate > 0 and self._rng.random() < rule.duplicate:
                offset = self._rng.uniform(0.0, rule.reorder_spread)
                copy = Envelope(
                    src=src, dst=dst, payload=payload, size=size,
                    sent_at=now, delivered_at=arrival + offset,
                    dst_incarnation=route.receiver.incarnation, duplicated=True,
                )
                self.messages_duplicated += 1
                if tracer is not None:
                    tracer.emit(
                        "net.duplicate", now, src=src, dst=dst,
                        type=type(payload).__name__,
                    )
                self.env._schedule_call(
                    self._deliver, (copy,), arrival + offset - now
                )
                break   # at most one injected copy per message

    def broadcast(self, src: str, dsts: list[str], payload: Any, size: int = 128) -> None:
        """Unicast ``payload`` to every destination in ``dsts``."""
        send = self.send
        for dst in dsts:
            send(src, dst, payload, size)

    def defer(self, fn: Callable[[], None]) -> None:
        """Every send is delivered on its own here, so there is nothing
        to wait for: ``fn`` runs at once (``Transport.defer``)."""
        fn()

    def _deliver(self, envelope: Envelope) -> None:
        receiver = self._hosts.get(envelope.dst)
        if receiver is None or receiver.crashed:
            self.messages_dropped += 1
            self._trace_drop(
                envelope.src, envelope.dst, envelope.payload, "dst_crashed"
            )
            return
        if receiver.incarnation != envelope.dst_incarnation:
            # The receiver rebooted while this envelope was in flight:
            # its old connections died with it, so the stale envelope
            # must not leak into the new incarnation's inbox (it could
            # arrive out of FIFO order relative to post-reboot traffic).
            self.messages_dropped += 1
            self._trace_drop(
                envelope.src, envelope.dst, envelope.payload, "stale_incarnation"
            )
            return
        if self._partitions and self.is_partitioned(envelope.src, envelope.dst):
            self.messages_dropped += 1
            self._trace_drop(
                envelope.src, envelope.dst, envelope.payload, "partitioned"
            )
            return
        self.messages_delivered += 1
        self.bytes_delivered += envelope.size
        receiver.inbox.put_nowait(envelope)
        tracer = self._net_tracer
        if tracer is not None:
            tracer.emit(
                "net.deliver", self.env.now,
                src=envelope.src, dst=envelope.dst,
                type=type(envelope.payload).__name__,
                latency=self.env.now - envelope.sent_at,
                inbox_depth=len(receiver.inbox),
            )
