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
from ..paxos.types import AppValue, Batch
from ..runtime.kernel import Kernel, Transport
from .elastic import ElasticMerger
from .stream import StreamDeployment, TokenLog

__all__ = ["MulticastReplica"]

# ``observer(stream, first_position, values)``: one delivered run.
RunObserver = Callable[[str, int, Sequence[AppValue]], None]


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
        self.learners: dict[str, LearnerCore] = {}
        self.logs: dict[str, TokenLog] = {}
        self.merger = self._new_merger()

    def _new_merger(self) -> ElasticMerger:
        env = self.env
        return ElasticMerger(
            group=self.group,
            deliver=self._deliver_run,
            stream_provider=self._provide_stream,
            stream_releaser=self._release_stream,
            on_subscription_change=self.on_subscription_change,
            now=lambda: env.now,
            owner=self.name,
            env=env,
        )

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

    def on_subscription_change(self, kind: str, stream: str) -> None:
        """Subclass hook: Σ changed ('subscribe'/'unsubscribe')."""

    # -- lifecycle ---------------------------------------------------------------

    def bootstrap(self, streams: list[str]) -> None:
        """Install the initial subscriptions and start merging."""
        logs = {}
        for stream in streams:
            logs[stream] = self._attach_stream(stream, recover=False)
        self.merger.bootstrap(logs)
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
        log = TokenLog(start_position=base_position)

        def on_decided(instance: int, batch: Batch, _stream=stream, _log=log):
            _log.append_batch(batch, instance=instance)
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    "learner.learned", self.env.now, replica=self.name,
                    stream=_stream, instance=instance,
                    msg_ids=[
                        t.msg_id for t in batch.tokens
                        if isinstance(t, AppValue)
                    ],
                    positions=batch.positions(),
                )
            metrics = self._metrics
            if metrics is not None:
                cursor = self.merger.positions().get(_stream)
                if cursor is not None:
                    metrics.gauge(self.name, "merge_lag").record(
                        _log.frontier - cursor
                    )
            self.merger.notify(_stream)

        def on_rebase(_first_instance: int, base_position: int, _log=log):
            _log.rebase(base_position)

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
        """Capture a recovery point: Σ, merge cursors, replay points and
        the application state.

        Only valid while no subscription is in flight (the dMerge's
        pending machinery is not checkpointed; callers retry later).
        """
        if self.merger.pending_subscription is not None:
            raise RuntimeError(
                f"{self.name}: cannot checkpoint during a subscription"
            )
        cursors = self.merger.positions()
        streams = {}
        for stream in self.merger.sigma:
            cursor = cursors[stream]
            instance, base = self.logs[stream].replay_point(cursor)
            streams[stream] = {
                "replay_instance": instance,
                "base_position": base,
                "cursor": cursor,
            }
        checkpoint = {
            "sigma": list(self.merger.sigma),
            "streams": streams,
            "next_stream": self.merger.next_stream,
            "state": self.snapshot_state(),
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
        logs = {}
        positions = {}
        for stream, point in checkpoint["streams"].items():
            logs[stream] = self._attach_stream(
                stream,
                recover=False,
                start_instance=point["replay_instance"],
                base_position=point["base_position"],
            )
            positions[stream] = point["cursor"]
        self.merger.bootstrap(
            logs,
            positions=positions,
            next_stream=checkpoint.get("next_stream"),
        )
        self.restore_state(checkpoint["state"])
        self.start()
        for stream in checkpoint["streams"]:
            self.learners[stream].start_recovery()

    def safe_trim_instance(self, stream: str) -> Optional[int]:
        """Highest acceptor-log instance this replica no longer needs.

        None when the replica subscribes to ``stream`` but cannot spare
        anything yet.  Raises KeyError for streams it does not consume.
        """
        if stream not in self.logs:
            raise KeyError(f"{self.name} has no learner for {stream!r}")
        position = self.merger.positions().get(stream)
        if position is None:
            # Attached (prepare/pending) but not merging yet: the whole
            # backlog is still needed.
            return None
        return self.logs[stream].instance_consumed_below(position)

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
