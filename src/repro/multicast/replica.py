"""A multicast replica: learner tasks + dMerge on one host.

:class:`MulticastReplica` is the process the paper's Figure 1 calls a
*Replica*: it hosts one learner task per subscribed stream, a token log
per stream, and the dMerge (:class:`repro.multicast.elastic.ElasticMerger`)
that turns the streams into a single acyclic delivery order.  The
application (e.g. the key/value store) receives delivered values
through ``on_deliver`` or by subclassing.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from ..net.actor import Actor
from ..paxos.learner import LearnerCore
from ..paxos.messages import Decision, RecoverReply
from ..paxos.types import AppValue, Batch, Token
from ..runtime.kernel import Kernel, Transport
from .elastic import ElasticMerger, MergerState
from .stream import StreamDeployment, TokenLog

__all__ = ["MulticastReplica"]

# ``observer(stream, first_position, values)``: one delivered run.
RunObserver = Callable[[str, int, Sequence[AppValue]], None]
# ``observer(stream, instance, request)``: the merger passed a subscribe
# or prepare request decided in ``instance`` of ``stream``.
RequestObserver = Callable[[str, int, Token], None]


class MulticastReplica(Actor):
    """A replica of replication group ``group``.

    Parameters
    ----------
    directory:
        Maps stream names to their :class:`StreamDeployment`; the
        replica uses it to register as a learner and to spawn learner
        tasks for newly subscribed streams (the role ZooKeeper plays in
        URingPaxos).
    on_deliver:
        ``on_deliver(value, stream, position)`` invoked in merge order.
        Subclasses may instead override :meth:`apply`.
    """

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        group: str,
        directory: Mapping[str, StreamDeployment],
        on_deliver: Optional[Callable[[AppValue, str, int], None]] = None,
    ):
        super().__init__(env, network, name)
        self.group = group
        self.directory = directory
        self._on_deliver = on_deliver
        # What a delivered value is applied with: the subclass's
        # ``apply``, else the callback -- None when there is neither, so
        # a run is then traced, counted and tapped, and that is all.
        self._apply = (
            self.apply if type(self).apply is not MulticastReplica.apply
            else on_deliver
        )
        # Fixed at environment construction; cached for the hot probes.
        self._tracer = env.tracer
        self._metrics = env.metrics
        self._taps: list[RunObserver] = []
        self._request_taps: list[RequestObserver] = []
        self.learners: dict[str, LearnerCore] = {}
        self.logs: dict[str, TokenLog] = {}
        # stream -> the first instance the latest checkpoint replays;
        # None until the replica takes one.
        self.checkpointed: Optional[dict[str, int]] = None
        self.merger = self._new_merger()

    def _new_merger(self) -> ElasticMerger:
        env = self.env
        merger = ElasticMerger(
            group=self.group,
            deliver=self._deliver_run,
            stream_provider=self._provide_stream,
            stream_releaser=self._release_stream,
            on_subscription_change=self.on_subscription_change,
            now=lambda: env.now,
            owner=self.name,
            env=env,
        )
        merger.on_request = self._request_passed
        return merger

    # -- application hooks ---------------------------------------------------

    def apply(self, value: AppValue, stream: str, position: int) -> None:
        """Deliver one value to the application (override or callback)."""
        if self._on_deliver is not None:
            self._on_deliver(value, stream, position)

    def _deliver_run(
        self, stream: str, first: int, values: Sequence[AppValue]
    ) -> None:
        """The merger delivered ``values`` from ``stream`` at the
        positions from ``first`` on: one trace record, one counter bump
        and one call per tap for the run, then each value applied."""
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "replica.deliver", self.env.now,
                (self.name, self.group, stream, first)
                + tuple([value.msg_id for value in values]),
            )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(self.name, "delivered").record(len(values))
        for tap in self._taps:
            tap(stream, first, values)
        apply = self._apply
        if apply is not None:
            for value in values:
                apply(value, stream, first)
                first += 1

    def add_run_observer(self, observer: RunObserver) -> None:
        """Attach a tap invoked once per delivered run, ``observer(stream,
        first_position, values)``, before the application.  Observers
        survive crash/recovery (they watch the replica, not its volatile
        state) -- the invariant checkers of :mod:`repro.faults` attach
        through this."""
        self._taps.append(observer)

    def add_delivery_observer(
        self, observer: Callable[[AppValue, str, int], None]
    ) -> None:
        """:meth:`add_run_observer` for a per-value tap,
        ``observer(value, stream, position)``."""

        def tap(stream: str, first: int, values: Sequence[AppValue]) -> None:
            for value in values:
                observer(value, stream, first)
                first += 1

        self._taps.append(tap)

    def add_request_observer(self, observer: RequestObserver) -> None:
        """Attach ``observer(stream, instance, request)``, invoked when
        the merger passes a subscribe or prepare request of *any* group
        -- what :class:`~repro.multicast.trim.TrimCoordinator` guards.
        Like run observers, it survives crash/recovery."""
        self._request_taps.append(observer)

    def _request_passed(
        self, stream: str, position: int, request: Token
    ) -> None:
        if self._request_taps:
            instance = self.logs[stream].instance_of(position)
            if instance is not None:
                for tap in self._request_taps:
                    tap(stream, instance, request)

    def on_subscription_change(self, kind: str, stream: str) -> None:
        """Subclass hook: Σ changed ('subscribe'/'unsubscribe')."""

    # -- lifecycle ---------------------------------------------------------------

    def bootstrap(self, streams: list[str]) -> None:
        """Install the initial subscriptions and start merging."""
        logs = {s: self._attach_stream(s, recover=False) for s in streams}
        self.merger.restore(MergerState.initial(streams), logs)
        self.start()

    @property
    def subscriptions(self) -> tuple[str, ...]:
        return self.merger.subscriptions

    # -- stream plumbing -------------------------------------------------------

    def _attach_stream(
        self,
        stream: str,
        recover: bool,
        start_instance: int = 0,
        base_position: int = 0,
    ) -> TokenLog:
        if stream in self.learners:
            return self.logs[stream]
        deployment = self.directory[stream]
        log = TokenLog(start_position=base_position, start_instance=start_instance)
        trimmer = deployment.trimmer
        if trimmer is not None:
            trimmer.join(self, stream)

        def on_decided(instance: int, batch: Batch, _stream=stream, _log=log):
            _log.append_batch(batch, instance=instance)
            tracer = self._tracer
            if tracer is not None:
                tracer.emit("learner.learned", self.env.now, (
                    self.name, _stream, instance, batch.positions(),
                    *[t.msg_id for t in batch.tokens
                      if isinstance(t, AppValue)],
                ))
            metrics = self._metrics
            if metrics is not None:
                cursor = self.merger.positions().get(_stream)
                if cursor is not None:
                    metrics.gauge(self.name, "merge_lag").record(
                        _log.frontier - cursor
                    )
            self.merger.notify(_stream)
            if trimmer is not None:
                trimmer.learned(_stream, batch)

        def on_rebase(first_instance: int, base_position: int, _log=log):
            _log.rebase(base_position, first_instance)

        core = LearnerCore(
            self.env,
            deployment.config,
            on_decided,
            send=self.send,
            on_rebase=on_rebase,
            start_instance=start_instance,
            owner=self.name,
        )
        core.start()
        self.learners[stream] = core
        self.logs[stream] = log
        deployment.add_learner(self.name)
        if recover:
            core.start_recovery()
        return log

    def _provide_stream(self, stream: str) -> TokenLog:
        """Merger callback: it needs a stream it has no learner for."""
        return self._attach_stream(stream, recover=True)

    def crash(self) -> None:
        """Crash the replica: the host drops traffic and every learner
        task (and its gap-repair timer) halts."""
        for core in self.learners.values():
            core.stop()
        super().crash()

    # -- checkpointing & crash recovery ---------------------------------------

    def snapshot_state(self):
        """Subclass hook: application state to include in a checkpoint."""
        return None

    def restore_state(self, state) -> None:
        """Subclass hook: reinstall application state from a checkpoint."""

    def make_checkpoint(self) -> dict:
        """Capture a recovery point, at any instant: the merger's state
        (a :class:`MergerState`) and the application state.  The
        replica recovers from the latest one it took, so from then on
        it may replay each stream from that checkpoint's replay point
        (:meth:`replay_floor`)."""
        state = self.merger.state()
        checkpoint = {"merger": state, "state": self.snapshot_state()}
        self.checkpointed = {
            stream: instance
            for stream, (instance, _base) in state.replay_points
        }
        metrics = self._metrics
        if metrics is not None:
            metrics.histogram(self.name, "checkpoint_bytes").record(
                len(repr(checkpoint))
            )
        return checkpoint

    def recover_from_checkpoint(self, checkpoint: dict) -> None:
        """Rebuild this replica after a crash from ``checkpoint``.

        Learner tasks re-fetch decided instances from the replay points;
        the dMerge resumes at the checkpointed cursors and replays
        everything ordered since -- *including* subscribe/unsubscribe
        messages, so the replica re-learns all subscription changes that
        happened while it was down (§VIII-B of the paper).
        """
        for stream in list(self.learners):
            self._release_stream(stream)
        self.host.recover()
        self.merger = self._new_merger()
        state = checkpoint["merger"]
        logs = {
            stream: self._attach_stream(
                stream, False, start_instance=instance, base_position=base
            )
            for stream, (instance, base) in state.replay_points
        }
        self.merger.restore(state, logs)
        self.restore_state(checkpoint["state"])
        self.start()
        for stream in logs:
            self.learners[stream].start_recovery()

    def replay_floor(self, stream: str) -> Optional[int]:
        """The lowest instance of ``stream`` this replica may still read:
        the lower of its merge cursor's replay point and, once it has
        checkpointed, its latest checkpoint's.  A stream attached but
        not merged yet (a prepare) needs its whole log, from its seed.
        None when the replica reads nothing of ``stream``."""
        floor = None
        log = self.logs.get(stream)
        if log is not None:
            position = self.merger.positions().get(stream, log.base)
            floor = log.replay_point(position)[0]
        if self.checkpointed is not None:
            replay = self.checkpointed.get(stream)
            if replay is not None and (floor is None or replay < floor):
                floor = replay
        return floor

    def _release_stream(self, stream: str) -> None:
        """Merger callback: Σ dropped a stream; stop its learner task."""
        core = self.learners.pop(stream, None)
        if core is not None:
            core.stop()
        self.logs.pop(stream, None)
        deployment = self.directory.get(stream)
        if deployment is not None:
            deployment.remove_learner(self.name)

    # -- message dispatch ---------------------------------------------------------

    def dispatch(self, payload, src):
        if isinstance(payload, Decision):
            learner = self.learners.get(payload.stream)
            if learner is not None:       # decisions may trail an unsubscribe
                learner.on_decision(payload, src)
            return
        if isinstance(payload, RecoverReply):
            learner = self.learners.get(payload.stream)
            if learner is not None:
                learner.on_recover_reply(payload, src)
            return
        super().dispatch(payload, src)
