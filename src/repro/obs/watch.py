"""Anomaly watchdog over the online certifier and telemetry plane.

The certifier (:mod:`repro.obs.audit`) proves *safety* violations; this
module flags *anomalies* -- conditions that are not yet violations but
mean an operator (or the elasticity controller) should look:

========================  =============================================
``watermark_stall``       a stream's low delivery watermark stopped
                          advancing while the high one is ahead (a
                          replica is stuck or a worker is dead)
``quorum_stall``          proposals outstanding but no ``coord.decide``
                          for longer than the bound (acceptor quorum
                          lost)
``clock_drift``           a node's estimated clock offset exceeds the
                          bound the NTP-style handshake should keep it
                          under
``backpressure``          a transport send queue is near capacity
``delivery_collapse``     delivered values/s collapsed versus the
                          trailing window while submissions continue
``reconfig_stall``        a requested subscribe/split/replace has not
                          committed within the liveness bound
``unreachable``           a telemetry endpoint stopped answering
                          (endpoints mode only)
========================  =============================================

Detectors are pluggable: anything with ``name`` and
``observe(sample) -> list[Alert]`` returning the alerts *currently
firing*.  :class:`Watchdog` diffs consecutive firing sets into
``alert.raise`` / ``alert.clear`` transitions, keeps the active set,
scores health (100 = clean), and -- when given a tracer -- emits the
transitions as schema-valid ``alert.*`` trace events so they land in
the node's JSONL trace *and* its FlightRecorder ring (causal context
for any later dump).

Front ends:

:class:`TraceWatch`
    Tails a run directory (or one trace file) through the read side
    (:mod:`repro.obs.read`), feeds the certifier, samples it for the
    watchdog, and appends violations and alert transitions to a JSONL
    alert log (schema-valid; see ``audit.*`` / ``alert.*`` in
    :mod:`repro.obs.schema`).  This is ``python -m repro watch <dir>``
    and the deploy supervisor's live certification task.

:class:`EndpointsWatch`
    Scrapes a live cluster's ``/health`` endpoints concurrently (no
    trace files needed), as ``repro top`` does, and runs the detectors
    each node runs over itself, whose ``unreachable`` only fires here.
    This is ``python -m repro watch endpoints.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

from .audit import AuditViolation, SafetyCertifier
from .read import TraceDirectorySource

__all__ = [
    "Alert",
    "BackpressureDetector",
    "ClockDriftDetector",
    "DeliveryCollapseDetector",
    "EndpointsWatch",
    "QuorumStallDetector",
    "ReconfigStallDetector",
    "TraceWatch",
    "UnreachableDetector",
    "Watchdog",
    "WatermarkStallDetector",
    "default_node_detectors",
    "default_trace_detectors",
    "sample_from_health",
]

_PENALTY = {"info": 5, "warning": 15, "critical": 40}
# TraceWatch's cadences, in trace time: the watchdog samples the
# certifier every _SAMPLE_INTERVAL, the acyclicity pass runs every
# _ACYCLIC_EVERY.
_SAMPLE_INTERVAL = 0.25
_ACYCLIC_EVERY = 1.0
# Detector bounds: how far a node's clock offset may walk from its
# first estimate; the send-queue share that is backpressure, and the
# capacity assumed when a sample reports none; the delivery-collapse
# window, the rate drop that is a collapse and the rate it needs first.
_DRIFT_BOUND = 0.2
_HIGH_WATER = 0.8
_QUEUE_CAPACITY = 1024
_COLLAPSE_WINDOW = 2.0
_COLLAPSE_RATIO = 0.25
_COLLAPSE_MIN_RATE = 50.0


@dataclass(frozen=True)
class Alert:
    """One firing anomaly.  ``(detector, key)`` identifies it across
    ticks -- the watchdog uses that pair to tell a still-firing alert
    from a fresh one."""

    detector: str
    severity: str
    message: str
    at: float
    key: str = ""
    node: Optional[str] = None

    def to_json(self) -> dict:
        payload = {
            "detector": self.detector, "severity": self.severity,
            "message": self.message, "at": self.at, "key": self.key,
        }
        if self.node is not None:
            payload["node"] = self.node
        return payload


# -- detectors ---------------------------------------------------------
#
# Samples are plain dicts (see SafetyCertifier.watch_sample and
# sample_from_health) with at least {"at": float}; each detector reads
# the keys it understands and ignores the rest, so both trace-level and
# endpoint-level samples feed the same detector types.

class WatermarkStallDetector:
    """Low watermark frozen while the high one is ahead."""

    name = "watermark_stall"

    def __init__(self, stall_after: float = 2.0):
        self.stall_after = stall_after
        self._lows: dict[str, tuple[int, float]] = {}   # stream -> (low, since)

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        streams = sample.get("streams", {})
        alerts: list[Alert] = []
        for stream in list(self._lows):
            if stream not in streams:
                del self._lows[stream]
        for stream, entry in streams.items():
            low = entry.get("low")
            high = entry.get("high")
            if low is None or high is None:
                continue
            previous = self._lows.get(stream)
            if previous is None or low != previous[0]:
                self._lows[stream] = (low, at)
                continue
            stalled = at - previous[1]
            if high > low and stalled > self.stall_after:
                alerts.append(Alert(
                    detector=self.name, severity="warning", key=stream,
                    at=at, message=(
                        f"stream {stream}: low watermark stuck at {low} "
                        f"for {stalled:.1f}s while high is {high}"
                    ),
                ))
        return alerts


class QuorumStallDetector:
    """Proposals outstanding, no decide for longer than the bound."""

    name = "quorum_stall"

    def __init__(self, stall_after: float = 2.0):
        self.stall_after = stall_after

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        alerts: list[Alert] = []
        for stream, entry in sample.get("streams", {}).items():
            pending = entry.get("pending")
            age = entry.get("pending_age")
            if not pending or age is None:
                continue
            if age > self.stall_after:
                alerts.append(Alert(
                    detector=self.name, severity="critical", key=stream,
                    at=at, message=(
                        f"stream {stream}: {pending} proposals pending, "
                        f"oldest waiting {age:.1f}s with no coord.decide"
                    ),
                ))
        return alerts


class ClockDriftDetector:
    """A node's clock offset estimate *moved* beyond the drift bound.

    The first estimate per node defines that node's clock domain: a
    large but measured offset (a worker that booted later, an injected
    skew the handshake recovered) is fully compensated by the merge
    plane and is not an anomaly.  Drift is the estimate walking away
    from that baseline mid-run -- a clock running fast or slow, or a
    skew injected after the handshake.
    """

    name = "clock_drift"

    def __init__(self):
        self._baseline: dict[str, float] = {}

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        alerts: list[Alert] = []
        rtts = sample.get("clock_rtts", {})
        for node, offset in sample.get("clock_offsets", {}).items():
            baseline = self._baseline.setdefault(str(node), offset)
            drift = offset - baseline
            # The handshake is only RTT/2-accurate; widen the bound by
            # the measured round trip before calling it drift.
            rtt = rtts.get(node)
            slack = rtt if rtt is not None and rtt != float("inf") else 0.0
            if abs(drift) > _DRIFT_BOUND + slack:
                alerts.append(Alert(
                    detector=self.name, severity="warning", key=str(node),
                    node=str(node), at=at, message=(
                        f"node {node}: clock offset drifted {drift:+.3f}s "
                        f"from its {baseline:+.3f}s baseline, beyond the "
                        f"{_DRIFT_BOUND:g}s bound"
                    ),
                ))
        return alerts


class BackpressureDetector:
    """A transport send queue is near its configured capacity."""

    name = "backpressure"

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        capacity = sample.get("queue_capacity") or _QUEUE_CAPACITY
        alerts: list[Alert] = []
        for dst, depth in sample.get("queue_depths", {}).items():
            if depth / capacity >= _HIGH_WATER:
                alerts.append(Alert(
                    detector=self.name, severity="warning", key=str(dst),
                    node=sample.get("node"), at=at, message=(
                        f"send queue to {dst} at {depth}/{capacity} "
                        f"({100 * depth / capacity:.0f}% of capacity)"
                    ),
                ))
        return alerts


class DeliveryCollapseDetector:
    """Delivered values/s collapsed vs the trailing window while the
    client keeps submitting -- the datapath died under live load."""

    name = "delivery_collapse"

    def __init__(self):
        self._history: list[tuple[float, int, int]] = []

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        delivered = sample.get("delivered")
        submitted = sample.get("submitted")
        if delivered is None or submitted is None:
            return []
        history = self._history
        history.append((at, int(delivered), int(submitted)))
        horizon = at - 2 * _COLLAPSE_WINDOW
        while len(history) > 2 and history[1][0] <= horizon:
            history.pop(0)
        # Split the retained history at the window boundary: the
        # previous window's delivery rate vs the current one's.
        boundary = at - _COLLAPSE_WINDOW
        pivot = None
        for index, (t, _d, _s) in enumerate(history):
            if t <= boundary:
                pivot = index
        if pivot is None or pivot == len(history) - 1:
            return []
        t0, d0, s0 = history[0]
        tp, dp, sp = history[pivot]
        t1, d1, s1 = history[-1]
        span_prev = tp - t0
        span_cur = t1 - tp
        if span_prev <= 0 or span_cur <= 0:
            return []
        rate_prev = (dp - d0) / span_prev
        rate_cur = (d1 - dp) / span_cur
        submit_cur = (s1 - sp) / span_cur
        if (rate_prev >= _COLLAPSE_MIN_RATE
                and rate_cur < _COLLAPSE_RATIO * rate_prev
                and submit_cur >= _COLLAPSE_RATIO * _COLLAPSE_MIN_RATE):
            return [Alert(
                detector=self.name, severity="critical", key="cluster",
                at=at, message=(
                    f"delivery rate collapsed to {rate_cur:.0f}/s from "
                    f"{rate_prev:.0f}/s while submissions continue "
                    f"({submit_cur:.0f}/s)"
                ),
            )]
        return []


class ReconfigStallDetector:
    """A reconfiguration request passed its commit-liveness bound."""

    name = "reconfig_stall"

    def __init__(self, bound: float = 5.0):
        self.bound = bound

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        alerts: list[Alert] = []
        for request_id, age in sample.get("pending_reconfigs", {}).items():
            if age > self.bound:
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    key=str(request_id), at=at, message=(
                        f"reconfiguration request {request_id} has not "
                        f"committed after {age:.1f}s "
                        f"(bound {self.bound:g}s)"
                    ),
                ))
        return alerts


class UnreachableDetector:
    """A telemetry endpoint stopped answering (endpoints mode)."""

    name = "unreachable"

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        return [
            Alert(
                detector=self.name, severity="critical", key=str(node),
                node=str(node), at=at,
                message=f"node {node}: telemetry endpoint unreachable",
            )
            for node in sample.get("unreachable", ())
        ]


def default_trace_detectors(
    stall_after: float = 2.0,
    reconfig_bound: float = 5.0,
) -> list:
    """The catalogue a trace-directory watch runs (docs/OBSERVABILITY.md)."""
    return [
        WatermarkStallDetector(stall_after=stall_after),
        QuorumStallDetector(stall_after=stall_after),
        ClockDriftDetector(),
        DeliveryCollapseDetector(),
        ReconfigStallDetector(bound=reconfig_bound),
    ]


def default_node_detectors() -> list:
    """Detectors over health samples, a node's own or a cluster's
    (:func:`sample_from_health`); ``unreachable`` only ever fires on a
    cluster's, the one sample that lists the nodes that did not answer."""
    return [
        WatermarkStallDetector(),
        BackpressureDetector(),
        DeliveryCollapseDetector(),
        UnreachableDetector(),
    ]


# -- watchdog ----------------------------------------------------------

def _emit_transitions(emit: Callable[..., None], raised: Iterable[Alert],
                      cleared: Iterable[Alert], at: float) -> None:
    """Write raise/clear transitions as ``alert.*`` events through
    ``emit(kind, at, **fields)`` (a tracer's, or an alert log's)."""
    for alert in raised:
        emit("alert.raise", alert.at, detector=alert.detector,
             severity=alert.severity, message=alert.message, key=alert.key)
    for alert in cleared:
        emit("alert.clear", at, detector=alert.detector, key=alert.key)


class Watchdog:
    """Runs detectors over samples, diffs firing sets into raise/clear
    transitions, keeps the active set, scores health."""

    def __init__(
        self,
        detectors: Iterable,
        tracer: Optional[Any] = None,
    ):
        self.detectors = list(detectors)
        self.tracer = tracer
        self.active: dict[tuple[str, str], Alert] = {}
        self.raised_total = 0
        self.history: list[Alert] = []       # every alert ever raised

    def observe(self, sample: Mapping) -> tuple[list[Alert], list[Alert]]:
        """Feed one sample; returns ``(raised, cleared)`` transitions."""
        firing: dict[tuple[str, str], Alert] = {}
        for detector in self.detectors:
            for alert in detector.observe(sample):
                firing[(alert.detector, alert.key)] = alert
        raised = [
            alert for key, alert in firing.items() if key not in self.active
        ]
        cleared = [
            alert for key, alert in self.active.items() if key not in firing
        ]
        self.active = firing
        self.raised_total += len(raised)
        self.history.extend(raised)
        if self.tracer is not None:
            _emit_transitions(self.tracer.emit, raised, cleared,
                              float(sample.get("at", 0.0)))
        return raised, cleared

    def health_score(self) -> int:
        """100 = clean; each active alert subtracts its severity's
        penalty (floor 0)."""
        penalty = sum(
            _PENALTY.get(alert.severity, 15)
            for alert in self.active.values()
        )
        return max(0, 100 - penalty)

    def active_alerts(self) -> list[dict]:
        return [
            alert.to_json()
            for _key, alert in sorted(self.active.items())
        ]


# -- health-snapshot sampling -----------------------------------------

def _widen(streams: dict, stream: str, high: int,
           low: Optional[int] = None) -> None:
    """Take ``high`` (and ``low``) into ``stream``'s watermarks."""
    entry = streams.setdefault(stream, {"high": None, "low": None})
    if entry["high"] is None or high > entry["high"]:
        entry["high"] = high
    if low is not None and (entry["low"] is None or low < entry["low"]):
        entry["low"] = low


def sample_from_health(
    snapshots: Mapping[str, Optional[Mapping]],
    at: Optional[float] = None,
) -> dict:
    """Fold ``/health`` snapshots, keyed by node, into one watchdog sample.

    A stream's high watermark is the highest position decided by the
    coordinators the nodes host or delivered by their replicas; its low
    is the lowest replica delivery position.  A node watching itself
    passes its own snapshot and no ``at``: the sample takes the
    snapshot's clock and names the node.  :class:`EndpointsWatch`
    passes every node's, ``None`` for one that did not answer, and the
    time of the scrape: each send queue is keyed ``node:dst`` and the
    silent nodes are listed as ``unreachable``.
    """
    streams: dict[str, dict] = {}
    queue_depths: dict[str, float] = {}
    delivered = 0
    submitted: Optional[int] = None
    unreachable: list[str] = []
    for node, snapshot in sorted(snapshots.items()):
        if snapshot is None:
            unreachable.append(node)
            continue
        for stream, entry in (snapshot.get("streams") or {}).items():
            _widen(streams, stream, int(entry.get("positions_decided", 0)))
        for state in (snapshot.get("replicas") or {}).values():
            delivered += int(state.get("delivered", 0))
            for stream, position in (state.get("positions") or {}).items():
                _widen(streams, stream, int(position), int(position))
        transport = snapshot.get("transport") or {}
        for dst, depth in (transport.get("queue_depths") or {}).items():
            queue_depths[dst if at is None else f"{node}:{dst}"] = depth
        client = snapshot.get("client")
        if client is not None and client.get("submitted") is not None:
            submitted = (submitted or 0) + int(client["submitted"])
    sample: dict = {
        "streams": streams,
        "delivered": delivered,
        "queue_depths": queue_depths,
    }
    if at is None:
        (node, snapshot), = snapshots.items()
        sample.update(at=float(snapshot.get("now", 0.0)), node=node)
        capacity = (snapshot.get("transport") or {}).get("queue_capacity")
        if capacity:
            sample["queue_capacity"] = int(capacity)
    else:
        sample.update(at=at, unreachable=tuple(unreachable))
    if submitted is not None:
        sample["submitted"] = submitted
    return sample


# -- front ends --------------------------------------------------------

class _Watch:
    """What both front ends share: a :class:`Watchdog`, and the JSONL
    alert log whose records are themselves schema-valid trace events,
    closed by one ``audit.check`` record."""

    def __init__(self, detectors: Iterable, out: Optional[str]):
        self.watchdog = Watchdog(detectors)
        self.out_path = out
        self._out = open(out, "w", encoding="utf-8") if out else None
        self._seq = 0
        self.closed = False

    def _now(self) -> float:
        raise NotImplementedError

    def _record(self, kind: str, at: float, **fields: Any) -> None:
        event = {
            "ts": at, "seq": self._seq, "kind": kind,
            "cat": kind.split(".", 1)[0], **fields,
        }
        self._seq += 1
        if self._out is not None:
            self._out.write(json.dumps(event, separators=(",", ":")))
            self._out.write("\n")
            self._out.flush()

    def summary(self) -> dict:
        return {
            "alerts": [a.to_json() for a in self.watchdog.history],
            "active_alerts": self.watchdog.active_alerts(),
            "health_score": self.watchdog.health_score(),
        }

    def close(self) -> dict:
        """Closing ``audit.check`` record and file close, once; returns
        the summary."""
        if not self.closed:
            self.closed = True
            summary = self.summary()
            self._record(
                "audit.check", self._now(),
                events=summary.get("events", self._seq),
                violations=len(summary.get("violations", ())),
                alerts=len(summary["alerts"]),
                health_score=summary["health_score"],
                ok=summary.get("ok", True),
            )
            if self._out is not None:
                self._out.close()
                self._out = None
            self._summary = summary
        return self._summary


class TraceWatch(_Watch):
    """Certifier + watchdog over a run directory's trace files.

    ``step()`` polls the tails, feeds the certifier, samples it for the
    watchdog, and appends any transitions to the JSONL alert log.  The
    final :meth:`summary` (also written as a closing ``audit.check``
    record) is what the deploy supervisor embeds in the run manifest.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        paths: Optional[Iterable[str]] = None,
        out: Optional[str] = None,
        stall_after: float = 2.0,
        reconfig_bound: float = 5.0,
    ):
        super().__init__(default_trace_detectors(
            stall_after=stall_after, reconfig_bound=reconfig_bound,
        ), out)
        self.source = TraceDirectorySource(directory=directory, paths=paths)
        self.certifier = SafetyCertifier()
        self._last_acyclic = 0.0
        self._last_sample = 0.0

    def _now(self) -> float:
        return self.certifier.now

    def step(self) -> dict:
        """One tick: returns ``{"events", "violations", "raised",
        "cleared"}`` for this tick.

        The watchdog samples at a fixed *trace-time* cadence
        (``_SAMPLE_INTERVAL``) inside the event loop, not once per poll:
        replaying a finished trace post-hoc therefore produces the same
        sample sequence -- and the same staleness alerts -- a live tail
        saw, no matter how its events were batched into polls (a
        directory's files are interleaved by aligned timestamp).
        """
        events = self.source.poll()
        violations: list[AuditViolation] = []
        raised: list[Alert] = []
        cleared: list[Alert] = []
        for event in events:
            violations.extend(self.certifier.observe(event))
            if (self.certifier.now - self._last_sample
                    >= _SAMPLE_INTERVAL):
                self._last_sample = self.certifier.now
                tick_raised, tick_cleared = self.watchdog.observe(
                    self.certifier.watch_sample()
                )
                raised.extend(tick_raised)
                cleared.extend(tick_cleared)
        if (self.certifier.now - self._last_acyclic >= _ACYCLIC_EVERY
                and len(self.certifier.spec.groups) > 0):
            self._last_acyclic = self.certifier.now
            violations.extend(self.certifier.check_acyclic())
        sample = self.certifier.watch_sample()
        tick_raised, tick_cleared = self.watchdog.observe(sample)
        raised.extend(tick_raised)
        cleared.extend(tick_cleared)
        for violation in violations:
            payload = violation.to_json()
            payload.pop("at", None)
            self._record("audit.violation", violation.at, **payload)
        _emit_transitions(self._record, raised, cleared, sample["at"])
        return {
            "events": len(events),
            "violations": violations,
            "raised": raised,
            "cleared": cleared,
        }

    def drain(self, max_rounds: int = 1_000_000) -> list[dict]:
        """Step until a poll returns no new events (post-hoc mode);
        returns every step's tick, the last one empty."""
        ticks: list[dict] = []
        for _ in range(max_rounds):
            ticks.append(self.step())
            if not ticks[-1]["events"]:
                break
        return ticks

    @property
    def violations(self) -> list[AuditViolation]:
        return self.certifier.violations

    def summary(self) -> dict:
        summary = self.certifier.summary()
        summary.update(super().summary())
        summary["malformed_lines"] = self.source.malformed
        if self.out_path:
            summary["alert_log"] = self.out_path
        return summary

    def close(self) -> dict:
        """Final acyclicity pass, then the closing record."""
        if not self.closed:
            self.certifier.check_acyclic()
        return super().close()


class EndpointsWatch(_Watch):
    """Watchdog over a live cluster's ``/health`` endpoints.

    No trace files required: each poll scrapes every node at once
    (:func:`repro.runtime.console.fetch_all`, one per-node timeout for
    the lot), folds the snapshots into one sample, and feeds it to the
    node-level detectors.  Scrapes run on wall time (the caller's
    clock).
    """

    def __init__(
        self,
        endpoints: Mapping[str, tuple[str, int]],
        clock: Callable[[], float],
        timeout: float = 0.5,
        out: Optional[str] = None,
    ):
        super().__init__(default_node_detectors(), out)
        self.endpoints = dict(endpoints)
        self.clock = clock
        self.timeout = timeout

    def _now(self) -> float:
        return self.clock()

    def step(self) -> dict:
        # Deferred: the scraper's module imports the telemetry plane,
        # which imports this one.
        from ..runtime.console import fetch_all

        at = self.clock()
        sample = sample_from_health(
            fetch_all(self.endpoints, "/health", self.timeout), at=at
        )
        raised, cleared = self.watchdog.observe(sample)
        _emit_transitions(self._record, raised, cleared, at)
        return {
            "unreachable": list(sample["unreachable"]),
            "raised": raised,
            "cleared": cleared,
        }
