"""Causal message-lifecycle spans built from trace events.

:class:`LifecycleIndex` consumes protocol-level trace events (streaming,
as a tracer sink, or in bulk from a recorded JSONL file) and correlates
them by message id into one :class:`MessageLifecycle` per application
message:

    client submit -> coordinator propose -> Phase 2 sent -> decided
    -> learned (per replica) -> delivered by the dMerge (per replica)
    -> client ack

from which the per-stage latency breakdown of the end-to-end path is
derived.  Subscribe/unsubscribe switches are tracked the same way by
``request_id`` (:class:`SubscriptionTimeline`), including the merge
point each replica committed.

Stage definitions (seconds of virtual time):

=================  =====================================================
``submit->propose``  client submission to coordinator admission
``propose->phase2``  coordinator queueing/batching/CPU until Phase 2a
``phase2->decide``   quorum latency of the consensus instance
``decide->learn``    decision dissemination to a replica's learner task
``learn->deliver``   dMerge latency (merge-order wait) at that replica
``submit->deliver``  end-to-end, per replica
``submit->ack``      client-observed latency (first replica ack)
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .read import ClockAlignment, read_trace
from .recorder import FlightRecorder

__all__ = ["LifecycleIndex", "MessageLifecycle", "SubscriptionTimeline", "STAGES"]

STAGES = (
    "submit->propose",
    "propose->phase2",
    "phase2->decide",
    "decide->learn",
    "learn->deliver",
    "submit->deliver",
    "submit->ack",
)


@dataclass
class MessageLifecycle:
    """Everything observed about one application message."""

    msg_id: int
    stream: Optional[str] = None
    submitted_at: Optional[float] = None
    proposed_at: Optional[float] = None
    phase2_at: Optional[float] = None          # first Phase 2 send
    instance: Optional[int] = None
    decided_at: Optional[float] = None
    learned_at: dict = field(default_factory=dict)    # replica -> time
    delivered_at: dict = field(default_factory=dict)  # replica -> time
    position: Optional[int] = None
    acked_at: Optional[float] = None
    # Attribution extras (docs/OBSERVABILITY.md, "Latency attribution"):
    # the acceptor whose 2b (or ring decision) closed the instance, the
    # summed transport send-queue wait of this message's frames (live
    # mode), and raw ``net.context`` arrivals ``(ts, origin, origin_ts)``
    # from which queue-vs-wire transit is derived by repro.obs.critpath.
    closed_by: Optional[str] = None
    queue_wait: float = 0.0
    queue_wait_events: int = 0
    context_arrivals: list = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        return bool(self.delivered_at)

    @property
    def complete(self) -> bool:
        """True when the submit -> deliver path is fully reconstructed."""
        return (
            self.submitted_at is not None
            and self.proposed_at is not None
            and self.phase2_at is not None
            and self.decided_at is not None
            and bool(self.learned_at)
            and bool(self.delivered_at)
        )

    def stage_latencies(self) -> dict[str, float]:
        """Per-stage latencies (only stages with both endpoints known)."""
        out: dict[str, float] = {}

        def put(stage: str, start: Optional[float], end: Optional[float]):
            if start is not None and end is not None:
                # Clock-adjusted merged traces can leave residual skew on
                # stages outside the causal-repair set; never report a
                # negative latency.
                delta = end - start
                out[stage] = delta if delta > 0.0 else 0.0

        put("submit->propose", self.submitted_at, self.proposed_at)
        put("propose->phase2", self.proposed_at, self.phase2_at)
        put("phase2->decide", self.phase2_at, self.decided_at)
        first_learn = min(self.learned_at.values()) if self.learned_at else None
        first_deliver = (
            min(self.delivered_at.values()) if self.delivered_at else None
        )
        put("decide->learn", self.decided_at, first_learn)
        put("learn->deliver", first_learn, first_deliver)
        put("submit->deliver", self.submitted_at, first_deliver)
        put("submit->ack", self.submitted_at, self.acked_at)
        return out


@dataclass
class SubscriptionTimeline:
    """One subscribe/unsubscribe/prepare switch, by request id."""

    request_id: int
    kind: str = "subscribe"            # subscribe | unsubscribe | prepare
    group: Optional[str] = None
    stream: Optional[str] = None
    requested_at: Optional[float] = None
    begun_at: dict = field(default_factory=dict)      # replica -> time
    committed_at: dict = field(default_factory=dict)  # replica -> time
    merge_points: dict = field(default_factory=dict)  # replica -> position

    @property
    def switch_duration(self) -> Optional[float]:
        """Request to last replica commit (None until committed)."""
        if self.requested_at is None or not self.committed_at:
            return None
        return max(self.committed_at.values()) - self.requested_at


class LifecycleIndex:
    """Correlates trace events into message lifecycles.

    Use as a streaming tracer sink (it exposes ``record``), or feed a
    recorded trace via :meth:`consume_all` / :meth:`from_jsonl`.
    """

    def __init__(self):
        self.messages: dict[int, MessageLifecycle] = {}
        self.subscriptions: dict[int, SubscriptionTimeline] = {}
        # (stream, instance) -> msg_ids, for decide/learn correlation
        # when a decide event arrives before its phase2 counterpart has
        # been indexed (retransmission paths).
        self._instance_msgs: dict[tuple[str, int], tuple[int, ...]] = {}
        self.events_seen = 0
        # merge.head_of_line episodes: (replica, end_ts, waited, stream);
        # critpath.py blames each message's merge wait on the episode
        # overlapping its learn->deliver window.
        self.hol_episodes: list[tuple[str, float, float, str]] = []
        # The trace's clock offsets (meta.clock / meta.merge), which
        # critpath.py aligns raw ``origin_ts`` sender clocks with.
        self.clock = ClockAlignment()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_jsonl(cls, path: str) -> "LifecycleIndex":
        """Index a whole trace file; a torn line raises (only the merge
        tool salvages a torn trace)."""
        return cls().consume_all(read_trace(path))

    @classmethod
    def from_recorder(cls, recorder: FlightRecorder) -> "LifecycleIndex":
        index = cls()
        index.consume_all(recorder.events())
        return index

    def consume_all(self, events: Iterable[dict]) -> "LifecycleIndex":
        for event in events:
            self.record(event)
        return self

    def _message(self, msg_id: int) -> MessageLifecycle:
        lifecycle = self.messages.get(msg_id)
        if lifecycle is None:
            lifecycle = self.messages[msg_id] = MessageLifecycle(msg_id)
        return lifecycle

    def _subscription(self, request_id: int) -> SubscriptionTimeline:
        timeline = self.subscriptions.get(request_id)
        if timeline is None:
            timeline = self.subscriptions[request_id] = SubscriptionTimeline(
                request_id
            )
        return timeline

    # -- the sink --------------------------------------------------------

    def record(self, event: dict) -> None:  # noqa: C901 - a dispatch table
        self.events_seen += 1
        kind = event.get("kind")
        ts = event.get("ts", 0.0)
        if kind == "client.submit":
            m = self._message(event["msg_id"])
            if m.submitted_at is None:      # retries keep the first attempt
                m.submitted_at = ts
                m.stream = event.get("stream")
        elif kind == "client.ack":
            m = self._message(event["msg_id"])
            if m.acked_at is None:
                m.acked_at = ts
        elif kind == "coord.propose":
            msg_id = event.get("msg_id")
            if msg_id is not None:
                m = self._message(msg_id)
                if m.proposed_at is None:
                    m.proposed_at = ts
                    if m.stream is None:
                        m.stream = event.get("stream")
        elif kind == "coord.phase2":
            key = (event["stream"], event["instance"])
            ids = tuple(event.get("msg_ids") or ())
            self._instance_msgs.setdefault(key, ids)
            for msg_id in ids:
                m = self._message(msg_id)
                if m.phase2_at is None:
                    m.phase2_at = ts
                    m.instance = event["instance"]
        elif kind == "coord.decide":
            key = (event["stream"], event["instance"])
            closed_by = event.get("closed_by")
            for msg_id in self._instance_msgs.get(key, ()):
                m = self._message(msg_id)
                if m.decided_at is None:
                    m.decided_at = ts
                    if closed_by is not None:
                        m.closed_by = closed_by
        elif kind == "learner.learned":
            replica = event["replica"]
            for msg_id in event.get("msg_ids") or ():
                m = self._message(msg_id)
                m.learned_at.setdefault(replica, ts)
        elif kind == "replica.deliver":
            m = self._message(event["msg_id"])
            m.delivered_at.setdefault(event["replica"], ts)
            if m.position is None:
                m.position = event.get("position")
            if m.stream is None:
                m.stream = event.get("stream")
        elif kind in ("control.subscribe", "control.unsubscribe", "control.prepare"):
            t = self._subscription(event["request_id"])
            t.kind = kind.rpartition(".")[2]
            t.group = event.get("group")
            t.stream = event.get("stream")
            if t.requested_at is None:
                t.requested_at = ts
        elif kind == "merge.subscribe.begin":
            t = self._subscription(event["request_id"])
            t.begun_at.setdefault(event["replica"], ts)
        elif kind == "merge.subscribe.commit":
            t = self._subscription(event["request_id"])
            t.committed_at.setdefault(event["replica"], ts)
            t.merge_points[event["replica"]] = event["merge_point"]
        elif kind == "merge.unsubscribe":
            t = self._subscription(event["request_id"])
            t.kind = "unsubscribe"
            t.committed_at.setdefault(event["replica"], ts)
        elif kind == "merge.head_of_line":
            waited = event.get("waited", 0.0)
            if waited > 0.0:
                self.hol_episodes.append(
                    (event["replica"], ts, waited, event.get("stream", "?"))
                )
        elif kind == "transport.queue_wait":
            msg_id = event.get("msg_id")
            if msg_id is not None:
                m = self._message(msg_id)
                wait = event.get("wait", 0.0)
                if wait > 0.0:
                    m.queue_wait += wait
                m.queue_wait_events += 1
        elif kind == "net.context":
            msg_id = event.get("msg_id")
            if msg_id is not None:
                m = self._message(msg_id)
                m.context_arrivals.append(
                    (ts, event.get("origin"), event.get("origin_ts"))
                )
        elif kind in ("meta.clock", "meta.merge"):
            self.clock.observe(event)

    # -- analysis --------------------------------------------------------

    def delivered_messages(self) -> list[MessageLifecycle]:
        return [m for m in self.messages.values() if m.delivered]

    def stage_samples(self) -> dict[str, list[float]]:
        """All per-stage latency samples across delivered messages."""
        samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
        for lifecycle in self.messages.values():
            if not lifecycle.delivered:
                continue
            for stage, latency in lifecycle.stage_latencies().items():
                samples[stage].append(latency)
        return samples

    def coverage(self) -> tuple[int, int]:
        """``(complete, delivered)`` message counts -- how many delivered
        messages have a fully reconstructed submit -> deliver path."""
        delivered = self.delivered_messages()
        return sum(1 for m in delivered if m.complete), len(delivered)
