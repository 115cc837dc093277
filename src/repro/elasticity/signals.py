"""Signal plane of the elasticity controller.

The closed loop starts here: a *signal source* samples the telemetry
plane into an immutable :class:`SignalSnapshot` the policy engine can
evaluate.  Two sources exist, mirroring the two execution backends:

:class:`SimSignalSource`
    Reads the in-process :class:`repro.obs.metrics.MetricsRegistry`
    directly (the registry the simulated cluster's probes record into)
    plus cheap cluster introspection for the subscription state.

:class:`HttpSignalSource`
    Polls the per-node HTTP endpoints a live run serves
    (``/metrics.json`` for decide rates and latency quantiles,
    ``/health`` for subscription state -- see docs/OBSERVABILITY.md,
    "Live mode").

Both produce the same snapshot type, so policies are backend-agnostic.
A missing signal is represented as ``None`` / an absent key, never as a
stale number: the windowed instruments beneath re-evaluate their
retention window at read time (see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["HttpSignalSource", "SignalSnapshot", "SimSignalSource"]


@dataclass(frozen=True)
class SignalSnapshot:
    """One observation of the cluster, as the policy engine sees it.

    Attributes
    ----------
    at:
        Sample time (virtual seconds in the sim, node-local wall
        seconds live).  The policy engine's hysteresis and cooldown
        clocks run on this field, never on wall time directly.
    streams:
        The replication group's *committed* subscription set Σ: streams
        every replica has switched its dMerge to.
    provisioned:
        Every deployed stream (committed or not).
    pending_subscription:
        True while any replica has a subscription in flight; the engine
        refuses to stack reconfigurations on top of one another.
    decide_rate:
        Per-stream decided *application values* per second since the
        previous sample (skips excluded -- they are pacing, not load).
    decide_p99_ms:
        Per-stream p99 propose->decide latency over the retention
        window; streams with no recent samples are absent.
    shard_rate:
        Per-workload-shard submitted ops per second (empty when the
        workload is not sharded).
    """

    at: float
    streams: tuple[str, ...]
    provisioned: tuple[str, ...]
    pending_subscription: bool
    decide_rate: Mapping[str, float] = field(default_factory=dict)
    decide_p99_ms: Mapping[str, float] = field(default_factory=dict)
    shard_rate: Mapping[int, float] = field(default_factory=dict)

    @property
    def total_rate(self) -> float:
        """Aggregate decided values/s across the subscribed streams."""
        return sum(self.decide_rate.get(s, 0.0) for s in self.streams)

    @property
    def per_stream_rate(self) -> float:
        """Average decided values/s per subscribed stream."""
        if not self.streams:
            return 0.0
        return self.total_rate / len(self.streams)

    def hottest_stream(self) -> tuple[Optional[str], float]:
        """``(stream, share of total rate)`` of the busiest stream."""
        total = self.total_rate
        if not self.streams or total <= 0.0:
            return None, 0.0
        stream = max(self.streams, key=lambda s: self.decide_rate.get(s, 0.0))
        return stream, self.decide_rate.get(stream, 0.0) / total


class SimSignalSource:
    """Builds snapshots from a sim cluster's metrics registry.

    Decide rates come from the ``values_decided`` counters the
    coordinators record; per-stream decide latency from their windowed
    ``decide_latency_ms`` histograms.  Subscription state is read off
    the replicas (the registry has no notion of Σ).
    """

    def __init__(
        self,
        env,
        registry,
        replicas: Mapping[str, object],
        directory: Mapping[str, object],
    ):
        self.env = env
        self.registry = registry
        self.replicas = replicas
        self.directory = directory
        self._last_at: Optional[float] = None
        self._last_totals: dict[str, float] = {}
        self._last_shard_totals: dict[int, float] = {}

    def _committed_streams(self) -> tuple[str, ...]:
        replicas = list(self.replicas.values())
        if not replicas:
            return ()
        first = replicas[0].subscriptions
        return tuple(
            s for s in first
            if all(s in r.subscriptions for r in replicas[1:])
        )

    def sample(self) -> SignalSnapshot:
        now = self.env.now
        dt = None if self._last_at is None else now - self._last_at
        decide_rate: dict[str, float] = {}
        decide_p99: dict[str, float] = {}
        for stream, deployment in self.directory.items():
            coordinator = deployment.config.coordinator
            counter = self.registry.counter(coordinator, "values_decided")
            total = counter.total
            last = self._last_totals.get(stream, total)
            self._last_totals[stream] = total
            if dt is not None and dt > 0:
                decide_rate[stream] = (total - last) / dt
            else:
                decide_rate[stream] = 0.0
            histogram = self.registry.histogram(coordinator, "decide_latency_ms")
            if len(histogram) > 0:
                decide_p99[stream] = histogram.percentile(99)
        shard_rate: dict[int, float] = {}
        for (actor, name), counter in self.registry.counters().items():
            if name != "ops" or not actor.startswith("shard/"):
                continue
            shard = int(actor[len("shard/"):])
            total = counter.total
            last = self._last_shard_totals.get(shard, total)
            self._last_shard_totals[shard] = total
            if dt is not None and dt > 0:
                shard_rate[shard] = (total - last) / dt
        self._last_at = now
        return SignalSnapshot(
            at=now,
            streams=self._committed_streams(),
            provisioned=tuple(sorted(self.directory)),
            pending_subscription=any(
                r.merger.pending_subscription is not None
                for r in self.replicas.values()
            ),
            decide_rate=decide_rate,
            decide_p99_ms=decide_p99,
            shard_rate=shard_rate,
        )


class HttpSignalSource:
    """Builds snapshots by polling a live cluster's HTTP endpoints.

    One snapshot merges every node's ``/metrics.json`` (counters and
    histograms; each node serves only its own actors) and ``/health``
    (subscription state).  Endpoint failures
    degrade to missing signals, never to stale ones.
    """

    def __init__(self, endpoints: Mapping[str, tuple[str, int]], clock):
        self.endpoints = dict(endpoints)
        self.clock = clock                    # () -> seconds, caller's clock
        self._last_at: Optional[float] = None
        self._last_totals: dict[str, float] = {}

    async def sample(self) -> SignalSnapshot:
        from ..runtime.telemetry import EndpointError, http_json

        now = self.clock()
        dt = None if self._last_at is None else now - self._last_at
        totals: dict[str, float] = {}
        decide_p99: dict[str, float] = {}
        subscriptions: list[tuple[str, ...]] = []
        pending = False
        provisioned: set[str] = set()
        for _node, (host, port) in sorted(self.endpoints.items()):
            try:
                metrics = await http_json(host, port, "/metrics.json")
                health = await http_json(host, port, "/health")
            except EndpointError:
                continue       # endpoint briefly busy; sample what we can
            for entry in metrics.get("counters", ()):
                actor = entry.get("actor", "")
                if entry.get("name") == "values_decided" and "/" in actor:
                    stream = actor.split("/", 1)[0]
                    totals[stream] = totals.get(stream, 0.0) + entry["total"]
            for entry in metrics.get("histograms", ()):
                actor = entry.get("actor", "")
                if (
                    entry.get("name") == "decide_latency_ms"
                    and entry.get("p99") is not None
                    and "/" in actor
                ):
                    decide_p99[actor.split("/", 1)[0]] = entry["p99"]
            provisioned.update(health.get("streams", {}))
            for state in health.get("replicas", {}).values():
                subscriptions.append(tuple(state.get("subscriptions", ())))
                pending = pending or bool(state.get("pending_subscription"))
        decide_rate: dict[str, float] = {}
        for stream, total in totals.items():
            provisioned.add(stream)
            last = self._last_totals.get(stream, total)
            self._last_totals[stream] = total
            if dt is not None and dt > 0:
                decide_rate[stream] = (total - last) / dt
        if subscriptions:
            first = subscriptions[0]
            committed = tuple(
                s for s in first
                if all(s in other for other in subscriptions[1:])
            )
        else:
            committed = ()
        self._last_at = now
        return SignalSnapshot(
            at=now,
            streams=committed,
            provisioned=tuple(sorted(provisioned)),
            pending_subscription=pending,
            decide_rate=decide_rate,
            decide_p99_ms=decide_p99,
        )
