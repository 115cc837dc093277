"""The paper's broadcast deployment: the Fig. 3 and Fig. 5 setups.

The paper's vertical-scalability and reconfiguration experiments run a
bare SMR service: client threads send 32 KiB values, replicas deliver
them through the (elastic) merge and acknowledge back to the client.
Throughput is measured at the replicas, attributed to the stream each
value was ordered in -- exactly the per-stream series the figures plot.

:class:`BroadcastDeployment` stands that service up on a
:class:`~repro.harness.cluster.MulticastCluster` -- every evaluation
driver, baseline, ablation bench and the autoscaling example deploy
through it -- and folds the figures off it: the interval series, the
per-stream series, the phase averages and their scaling factor, and
the steady rate with the switch-window rates.  (The key/value store's
counterpart is :class:`repro.kvstore.repartition.KvCluster`.)
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..multicast.replica import MulticastReplica
from ..multicast.stream import StreamDeployment
from ..net.actor import Actor
from ..net.messages import FastMessage, WIRE_HEADER_BYTES
from ..obs.metrics import Counter, Series
from ..paxos.messages import Propose
from ..paxos.types import AppValue
from ..runtime.kernel import Expiries
from ..runtime.resources import Server
from ..sim.core import Environment
from ..sim.network import Network

if TYPE_CHECKING:
    from .cluster import MulticastCluster

__all__ = [
    "BroadcastClient", "BroadcastDeployment", "BroadcastReplica", "DeliveryAck",
]


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
        if value.sender:
            ack = DeliveryAck(msg_id=value.msg_id, replica=self.name)
            self.cpu.request(1.0, self.send, value.sender, ack)
        else:
            self.cpu.request(1.0)


class _Thread:
    """One closed-loop client thread: the stream it was started on, the
    stream it submits to and when its current value was first sent."""

    __slots__ = ("stream", "target", "started", "stopped")

    def __init__(self, stream: str):
        self.stream = stream
        self.target = stream
        self.started = 0.0
        self.stopped = False


class _Attempt:
    """One submission of a thread's value, waiting for the first ack or
    its expiry, whichever wakes it first."""

    __slots__ = ("thread", "msg_id", "acked", "woken")

    def __init__(self, thread: _Thread, msg_id: int):
        self.thread = thread
        self.msg_id = msg_id
        self.acked = False
        self.woken = False

    def waiting(self) -> bool:
        """Neither woken yet nor of a stopped thread: its expiry is due."""
        return not self.woken and not self.thread.stopped


class BroadcastClient(Actor):
    """Closed-loop client threads pinned to one stream each.

    The paper's Fig. 3 client runs "5 threads per stream": threads for a
    stream are started when the stream is added.  A thread submits one
    value, waits for the first replica ack (with a timeout for lost
    values), records latency, optionally thinks, and repeats.  Each
    thread is a state machine on ``call_later``: an attempt is woken by
    the ack or by its expiry, one calendar step after either, and then
    resumes the thread one step later still -- so an ack that lands in
    the step between an expiry and the resumption still counts.
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
        self.think_time = think_time
        self.rng = rng or random.Random(0)

        self.ops = Counter(env, f"{name}:ops")
        self.latency = Series(env, f"{name}:latency")
        self.timeouts = 0
        self._pending: dict[int, _Attempt] = {}
        self._expiries = Expiries(env, timeout, self._wake, _Attempt.waiting)
        self._threads: list[_Thread] = []
        self._retargets: dict[str, str] = {}

    def latency_p95_ms(self) -> Optional[float]:
        """p95 round trip in ms, or None when no value completed one."""
        if not len(self.latency):
            return None
        return self.latency.percentile(95) * 1000.0

    def start_threads(self, stream: str, count: int) -> None:
        """Start ``count`` closed-loop threads submitting to ``stream``
        from the next scheduling step on."""
        if not self.running:
            self.start()
        for _ in range(count):
            thread = _Thread(stream)
            self._threads.append(thread)
            self.env.call_later(0.0, self._next_value, thread)

    def stop_threads(self) -> None:
        """Stop every thread: nothing more is submitted, and what is in
        flight is forgotten -- its expiry never wakes it (it stopped
        waiting) and a late ack finds nothing."""
        for thread in self._threads:
            thread.stopped = True
        self._threads = []
        self._pending.clear()

    def retarget(self, old_stream: str, new_stream: str) -> None:
        """Move all threads from one stream to another (reconfiguration:
        after the switch, clients must submit to the new stream)."""
        self._retargets[old_stream] = new_stream

    def _target_of(self, stream: str) -> str:
        retargets = self._retargets
        while stream in retargets:
            stream = retargets[stream]
        return stream

    def _next_value(self, thread: _Thread) -> None:
        if thread.stopped:
            return
        thread.target = self._target_of(thread.stream)
        thread.started = self.env._now
        self._submit(thread)

    def _submit(self, thread: _Thread) -> None:
        # A fresh value per attempt: coordinators order each msg_id at
        # most once (wire-duplicate dedup), so a retry after a timeout
        # must be a new submission -- e.g. when the original was
        # ordered below a merge point and discarded by the subscription
        # scan.
        env = self.env
        target = thread.target
        value = AppValue(payload=None, size=self.value_size, sender=self.name)
        attempt = _Attempt(thread, value.msg_id)
        self._pending[value.msg_id] = attempt
        coordinator = self.directory[target].config.coordinator
        tracer = env.tracer
        if tracer is not None:
            tracer.emit(
                "client.submit", env._now,
                (self.name, target, self.value_size, value.msg_id),
            )
        self.send(coordinator, Propose(stream=target, token=value))
        self._expiries.add(attempt)

    def on_delivery_ack(self, msg: DeliveryAck, src: str) -> None:
        attempt = self._pending.pop(msg.msg_id, None)
        if attempt is not None:
            attempt.acked = True
            self.env.call_later(0.0, self._wake, attempt)

    def _wake(self, attempt: _Attempt) -> None:
        """The ack's step or the expiry: the first one resumes the
        thread in the next step, later ones do nothing."""
        if not attempt.woken:
            attempt.woken = True
            self.env.call_later(0.0, self._resume, attempt)

    def _resume(self, attempt: _Attempt) -> None:
        thread = attempt.thread
        if thread.stopped:
            return
        env = self.env
        tracer = env.tracer
        if not attempt.acked:
            self._pending.pop(attempt.msg_id, None)
            self.timeouts += 1
            if tracer is not None:
                tracer.emit(
                    "client.timeout", env._now, client=self.name,
                    stream=thread.target, msg_id=attempt.msg_id,
                )
            metrics = env.metrics
            if metrics is not None:
                metrics.counter(self.name, "timeouts").record()
            thread.target = self._target_of(thread.target)
            self._submit(thread)
            return
        self.ops.record()
        self.latency.record(env._now - thread.started)
        if tracer is not None:
            tracer.emit(
                "client.ack", env._now, client=self.name,
                msg_id=attempt.msg_id, latency=env._now - thread.started,
            )
        if self.think_time > 0:
            env.call_later(self.think_time, self._next_value, thread)
        else:
            self._next_value(thread)


class BroadcastDeployment:
    """``replicas`` :class:`BroadcastReplica` s and one closed-loop
    :class:`BroadcastClient` on a cluster, as the paper deploys them.

    The replicas are ``replica-<i>`` in group :attr:`group`, each
    merging ``streams`` (the cluster's first stream by default); the
    client is ``client`` on the cluster's ``client`` RNG stream and
    starts no thread of its own (``client.start_threads``).
    ``client_options`` go to the client (``value_size``, ``timeout``,
    ``think_time``).  The figures are read off the first replica of
    every service epoch (:meth:`restart`) and the client.
    """

    def __init__(
        self,
        cluster: "MulticastCluster",
        replicas: int = 2,
        streams: Optional[Sequence[str]] = None,
        cpu_rate: float = 2800.0,
        **client_options,
    ):
        self.cluster = cluster
        self._count = replicas
        self._streams = list(streams or [next(iter(cluster.directory))])
        self._cpu_rate = cpu_rate
        self._epochs: list[BroadcastReplica] = []
        self.group = ""
        self.replicas: list[BroadcastReplica] = []
        self._deploy_replicas("")
        self.client = BroadcastClient(
            cluster.env, cluster.network, "client", cluster.directory,
            rng=cluster.rng.stream("client"), **client_options,
        )

    def _deploy_replicas(self, suffix: str) -> None:
        cluster = self.cluster
        self.group = f"replicas{suffix}"
        self.replicas = []
        for index in range(self._count):
            replica = BroadcastReplica(
                cluster.env, cluster.network, f"replica-{index + 1}{suffix}",
                self.group, cluster.directory, cpu_rate=self._cpu_rate,
            )
            replica.bootstrap(self._streams)
            cluster.replicas[replica.name] = replica
            self.replicas.append(replica)
        self._epochs.append(self.replicas[0])

    def stop(self) -> None:
        """Stop the client's threads, then every replica."""
        self.client.stop_threads()
        for replica in self.replicas:
            replica.stop()

    def restart(self) -> None:
        """A new service epoch: fresh replicas ``replica-<i>-v<k>`` in
        group ``replicas-v<k>``, bootstrapped as the first were; the
        figures sum the epochs."""
        self._deploy_replicas(f"-v{len(self._epochs) + 1}")

    # -- the figures ---------------------------------------------------------

    def rate_between(self, start: float, end: float) -> float:
        """Values/s the first replica delivered over ``[start, end)``,
        summed over the epochs."""
        return sum(r.delivered_ops.rate_between(start, end) for r in self._epochs)

    def throughput(self, interval: float, duration: float) -> list:
        """``[(t, values/s)]`` over consecutive ``interval`` s of the run."""
        series = [
            r.delivered_ops.interval_rates(interval, 0.0, duration)
            for r in self._epochs
        ]
        return [
            (points[0][0], sum(rate for _t, rate in points))
            for points in zip(*series)
        ]

    def per_stream(self, interval: float, duration: float) -> dict:
        """``stream -> [(t, values/s)]``, of the first epoch."""
        return {
            stream: counter.interval_rates(interval, 0.0, duration)
            for stream, counter in self._epochs[0].per_stream_ops.items()
        }

    def phases(
        self, starts: Sequence[float], duration: float
    ) -> tuple[list, float]:
        """The average rate of each phase (phase ``k`` runs from
        ``starts[k]`` to the next start, clipped to the run) and the
        scaling factor: the last phase's over the first's, 0.0 when the
        first delivered nothing."""
        bounds = [min(start, duration) for start in starts] + [duration]
        averages = [
            self.rate_between(start, end)
            for start, end in zip(bounds, bounds[1:]) if end > start
        ]
        factor = 0.0
        if averages and averages[0] > 0:
            factor = averages[-1] / averages[0]
        return averages, factor

    def switch(
        self, throughput: list, at: float, window: float
    ) -> tuple[float, list]:
        """The steady rate over ``[0.3·at, at)`` and the ``throughput``
        rates from one interval before ``at`` to ``window`` s after it."""
        steady = self.rate_between(0.3 * at, at)
        return steady, [
            rate for t, rate in throughput if at - 1 <= t <= at + window
        ]
