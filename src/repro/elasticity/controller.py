"""The closed-loop elasticity controller.

Each control tick: sample the signal plane, activate any routing
intents whose target subscription committed, advance in-flight
retirements, run the policy engine, and execute whatever it released
-- tracing every step as ``elastic.*`` events so the decision's causal
chain (``elastic.decision`` -> ``control.subscribe`` ->
``merge.subscribe.commit``) is reconstructable from the trace alone.

The controller is backend-agnostic: on the simulator :meth:`start` arms
:meth:`tick` as a :func:`~repro.runtime.kernel.every` timer
(deterministic -- the acceptance criterion "same seed, same decision
timeline" holds because every input is virtual-time driven); live,
``repro live --autoscale`` ticks it from an asyncio task with snapshots
of the HTTP telemetry endpoints (or the installed registry) and an
executor over the pre-deployed spare streams.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.kernel import Timer, every
from .actions import ReplaceStream, SplitShard, SubscribeStream
from .policy import PolicyEngine, Proposal
from .signals import SignalSnapshot

__all__ = ["ElasticityController"]


class ElasticityController:
    """Sample -> decide -> act, on a fixed polling interval."""

    def __init__(
        self,
        source,
        engine: PolicyEngine,
        executor,
        env=None,
        interval: float = 0.25,
        name: str = "autoscaler",
        router=None,
        tracer=None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.source = source
        self.engine = engine
        self.executor = executor
        self.env = env
        self.interval = interval
        self.name = name
        self.router = router
        self._tracer = tracer if tracer is not None else (
            env.tracer if env is not None else None
        )
        self.executed: list[tuple[float, object, int]] = []
        self.last_snapshot: Optional[SignalSnapshot] = None
        self._timer: Optional[Timer] = None

    # -- one control tick ---------------------------------------------

    def tick(self, snapshot: Optional[SignalSnapshot] = None) -> list:
        """Run one control iteration; returns the actions executed."""
        if snapshot is None:
            snapshot = self.source.sample()
        self.last_snapshot = snapshot
        if self.router is not None:
            self.router.activate(snapshot.streams)
        poll = getattr(self.executor, "poll", None)
        if poll is not None:
            poll(snapshot)
        before = len(self.engine.timeline)
        proposals = self.engine.observe(snapshot)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "elastic.poll", snapshot.at, controller=self.name,
                streams=list(snapshot.streams),
                total_rate=round(snapshot.total_rate, 3),
                pending=snapshot.pending_subscription,
            )
            for record in self.engine.timeline[before:]:
                if record.status in ("enforce", "advisory"):
                    tracer.emit(
                        "elastic.decision", record.at, controller=self.name,
                        rule=record.proposal.rule, action=record.proposal.kind,
                        mode=record.status, reason=record.proposal.reason,
                    )
        executed = []
        for proposal in proposals:
            action = self.plan(proposal, snapshot)
            if action is None:
                continue
            request_id = self.executor.execute(action)
            self.executed.append((snapshot.at, action, request_id))
            executed.append(action)
            if tracer is not None:
                tracer.emit(
                    "elastic.action", snapshot.at, controller=self.name,
                    action=action.kind, stream=action.stream,
                    request_id=request_id, rule=proposal.rule,
                )
        return executed

    # -- proposal -> concrete action ----------------------------------

    def plan(self, proposal: Proposal, snapshot: SignalSnapshot):
        """Turn an abstract proposal into a concrete, named action.

        Returns None when the proposal cannot be realised (e.g. a
        replace targeting a stream that was already retired, or no
        stream left to grow onto)."""
        if not snapshot.streams:
            return None
        stream = self.executor.next_stream_name()
        if stream is None:
            return None         # nowhere to grow: every stream is in use
        via = snapshot.streams[0]
        if proposal.kind == "subscribe":
            return SubscribeStream(stream=stream, via=via)
        if proposal.kind == "split":
            hot = proposal.stream
            if hot is None or hot not in snapshot.streams:
                return None
            if self.router is None:
                return None
            shard = self.router.pick_split(hot, snapshot.shard_rate)
            if shard is None:
                return None
            return SplitShard(shard=shard, stream=stream, via=via)
        if proposal.kind == "replace":
            old = proposal.stream
            if old is None or old not in snapshot.streams:
                return None
            carrier = next(
                (s for s in snapshot.streams if s != old), old
            )
            return ReplaceStream(old=old, stream=stream, via=carrier)
        return None

    # -- sim timer ----------------------------------------------------

    def start(self) -> None:
        """Tick every ``interval`` on the kernel until :meth:`stop`."""
        if self.env is None:
            raise RuntimeError("controller has no kernel to run on")
        self._timer = every(self.env, self.interval, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
