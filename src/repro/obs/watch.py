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
    Tails a run directory with the incremental reader, feeds the
    certifier, samples it for the watchdog, and appends violations and
    alert transitions to a JSONL alert log (schema-valid; see
    ``audit.*`` / ``alert.*`` in :mod:`repro.obs.schema`).  This is
    ``python -m repro watch <dir>`` and the deploy supervisor's live
    certification task.

:class:`EndpointsWatch`
    Polls a live cluster's ``/health`` endpoints (no trace files
    needed) and runs the telemetry-level detectors, including
    ``unreachable``.  This is ``python -m repro watch endpoints.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from .audit import AuditViolation, SafetyCertifier, TraceDirectorySource

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

SEVERITIES = ("info", "warning", "critical")
_PENALTY = {"info": 5, "warning": 15, "critical": 40}


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

    def __init__(self, stall_after: float = 2.0, min_gap: int = 1):
        self.stall_after = stall_after
        self.min_gap = min_gap
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
            if high - low >= self.min_gap and stalled > self.stall_after:
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

    def __init__(self, bound: float = 0.2):
        self.bound = bound
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
            if abs(drift) > self.bound + slack:
                alerts.append(Alert(
                    detector=self.name, severity="warning", key=str(node),
                    node=str(node), at=at, message=(
                        f"node {node}: clock offset drifted {drift:+.3f}s "
                        f"from its {baseline:+.3f}s baseline, beyond the "
                        f"{self.bound:g}s bound"
                    ),
                ))
        return alerts


class BackpressureDetector:
    """A transport send queue is near its configured capacity."""

    name = "backpressure"

    def __init__(self, high_water: float = 0.8, capacity: int = 1024):
        self.high_water = high_water
        self.capacity = capacity

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        capacity = sample.get("queue_capacity") or self.capacity
        alerts: list[Alert] = []
        for dst, depth in sample.get("queue_depths", {}).items():
            if capacity and depth / capacity >= self.high_water:
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

    def __init__(
        self,
        window: float = 2.0,
        ratio: float = 0.25,
        min_rate: float = 50.0,
    ):
        self.window = window
        self.ratio = ratio
        self.min_rate = min_rate
        self._history: list[tuple[float, int, int]] = []

    def observe(self, sample: Mapping) -> list[Alert]:
        at = float(sample.get("at", 0.0))
        delivered = sample.get("delivered")
        submitted = sample.get("submitted")
        if delivered is None or submitted is None:
            return []
        history = self._history
        history.append((at, int(delivered), int(submitted)))
        horizon = at - 2 * self.window
        while len(history) > 2 and history[1][0] <= horizon:
            history.pop(0)
        # Split the retained history at the window boundary: the
        # previous window's delivery rate vs the current one's.
        boundary = at - self.window
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
        if (rate_prev >= self.min_rate
                and rate_cur < self.ratio * rate_prev
                and submit_cur >= self.ratio * self.min_rate):
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
    clock_bound: float = 0.2,
    reconfig_bound: float = 5.0,
) -> list:
    """The catalogue a trace-directory watch runs (docs/OBSERVABILITY.md)."""
    return [
        WatermarkStallDetector(stall_after=stall_after),
        QuorumStallDetector(stall_after=stall_after),
        ClockDriftDetector(bound=clock_bound),
        DeliveryCollapseDetector(),
        ReconfigStallDetector(bound=reconfig_bound),
    ]


def default_node_detectors(
    stall_after: float = 2.0,
    queue_capacity: int = 1024,
) -> list:
    """Detectors a node can run over its own health snapshots."""
    return [
        WatermarkStallDetector(stall_after=stall_after),
        BackpressureDetector(capacity=queue_capacity),
        DeliveryCollapseDetector(),
    ]


def default_endpoint_detectors(stall_after: float = 2.0) -> list:
    return [
        WatermarkStallDetector(stall_after=stall_after),
        BackpressureDetector(),
        DeliveryCollapseDetector(),
        UnreachableDetector(),
    ]


# -- watchdog ----------------------------------------------------------

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
        at = float(sample.get("at", 0.0))
        self.active = firing
        self.raised_total += len(raised)
        self.history.extend(raised)
        if self.tracer is not None:
            for alert in raised:
                self.tracer.emit(
                    "alert.raise", alert.at, cat="alert",
                    detector=alert.detector, severity=alert.severity,
                    message=alert.message, key=alert.key,
                )
            for alert in cleared:
                self.tracer.emit(
                    "alert.clear", at, cat="alert",
                    detector=alert.detector, key=alert.key,
                )
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

def sample_from_health(
    snapshot: Mapping,
    node: Optional[str] = None,
    queue_capacity: Optional[int] = None,
) -> dict:
    """Distil one node's ``/health`` snapshot into a watchdog sample.

    The stream high watermark comes from the coordinators this node
    hosts (positions decided); lows from its replicas' per-stream
    delivery positions.  Used both node-side (self-observation on every
    scrape) and by :class:`EndpointsWatch`.
    """
    streams: dict[str, dict] = {}
    for stream, entry in (snapshot.get("streams") or {}).items():
        streams[stream] = {
            "high": int(entry.get("positions_decided", 0)),
            "low": None,
        }
    delivered = 0
    for state in (snapshot.get("replicas") or {}).values():
        delivered += int(state.get("delivered", 0))
        for stream, position in (state.get("positions") or {}).items():
            entry = streams.setdefault(stream, {"high": None, "low": None})
            position = int(position)
            if entry["low"] is None or position < entry["low"]:
                entry["low"] = position
            if entry["high"] is None or position > entry["high"]:
                entry["high"] = position
    transport = snapshot.get("transport") or {}
    sample = {
        "at": float(snapshot.get("now", 0.0)),
        "node": node if node is not None else snapshot.get("node"),
        "streams": streams,
        "delivered": delivered,
        "queue_depths": dict(transport.get("queue_depths") or {}),
    }
    capacity = queue_capacity or transport.get("queue_capacity")
    if capacity:
        sample["queue_capacity"] = int(capacity)
    client = snapshot.get("client")
    if client is not None and client.get("submitted") is not None:
        sample["submitted"] = int(client["submitted"])
    return sample


# -- front ends --------------------------------------------------------

class TraceWatch:
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
        detectors: Optional[Iterable] = None,
        stall_after: float = 2.0,
        clock_bound: float = 0.2,
        reconfig_bound: float = 5.0,
        compact_limit: int = 100_000,
        acyclic_every: float = 1.0,
        sample_interval: float = 0.25,
        on_event: Optional[Callable[[dict], None]] = None,
    ):
        self.source = TraceDirectorySource(directory=directory, paths=paths)
        self.certifier = SafetyCertifier(compact_limit=compact_limit)
        self.watchdog = Watchdog(detectors if detectors is not None else
                                 default_trace_detectors(
                                     stall_after=stall_after,
                                     clock_bound=clock_bound,
                                     reconfig_bound=reconfig_bound,
                                 ))
        self.out_path = out
        self.on_event = on_event
        self.acyclic_every = acyclic_every
        self.sample_interval = sample_interval
        self._out = open(out, "w", encoding="utf-8") if out else None
        self._seq = 0
        self._last_acyclic = 0.0
        self._last_sample = 0.0
        self.closed = False

    # alert-log records are themselves schema-valid trace events.
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
        if self.on_event is not None:
            self.on_event(event)

    def step(self) -> dict:
        """One tick: returns ``{"events", "violations", "raised",
        "cleared"}`` for this tick.

        The watchdog samples at a fixed *trace-time* cadence
        (``sample_interval``) inside the event loop, not once per poll:
        replaying a finished run post-hoc therefore produces the same
        sample sequence -- and the same staleness alerts -- a live tail
        saw, no matter how the events were batched into polls.
        """
        events = self.source.poll()
        violations: list[AuditViolation] = []
        raised: list[Alert] = []
        cleared: list[Alert] = []
        for event in events:
            violations.extend(self.certifier.observe(event))
            if (self.certifier.now - self._last_sample
                    >= self.sample_interval):
                self._last_sample = self.certifier.now
                tick_raised, tick_cleared = self.watchdog.observe(
                    self.certifier.watch_sample()
                )
                raised.extend(tick_raised)
                cleared.extend(tick_cleared)
        if (self.certifier.now - self._last_acyclic >= self.acyclic_every
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
        for alert in raised:
            self._record(
                "alert.raise", alert.at, detector=alert.detector,
                severity=alert.severity, message=alert.message,
                key=alert.key,
            )
        for alert in cleared:
            self._record(
                "alert.clear", sample["at"], detector=alert.detector,
                key=alert.key,
            )
        return {
            "events": len(events),
            "violations": violations,
            "raised": raised,
            "cleared": cleared,
        }

    def drain(self, max_rounds: int = 1_000_000) -> None:
        """Step until a poll returns no new events (post-hoc mode)."""
        for _ in range(max_rounds):
            if not self.step()["events"]:
                break

    @property
    def violations(self) -> list[AuditViolation]:
        return self.certifier.violations

    def summary(self) -> dict:
        summary = self.certifier.summary()
        summary["alerts"] = [a.to_json() for a in self.watchdog.history]
        summary["active_alerts"] = self.watchdog.active_alerts()
        summary["health_score"] = self.watchdog.health_score()
        summary["malformed_lines"] = self.source.malformed
        if self.out_path:
            summary["alert_log"] = self.out_path
        return summary

    def close(self) -> dict:
        """Final acyclicity pass, closing ``audit.check`` record, file
        close; returns the summary."""
        if not self.closed:
            self.closed = True
            self.certifier.check_acyclic()
            summary = self.summary()
            self._record(
                "audit.check", self.certifier.now,
                events=summary["events"],
                violations=len(summary["violations"]),
                alerts=len(summary["alerts"]),
                health_score=summary["health_score"],
                ok=summary["ok"],
            )
            if self._out is not None:
                self._out.close()
                self._out = None
            self._summary = summary
        return self._summary


class EndpointsWatch:
    """Watchdog over a live cluster's ``/health`` endpoints.

    No trace files required: each poll scrapes every node (with a
    per-node timeout), builds one sample per node plus the reachability
    set, and feeds the node-level detectors.  Scrapes run on wall time
    (the caller's clock).
    """

    def __init__(
        self,
        endpoints: Mapping[str, tuple[str, int]],
        clock: Callable[[], float],
        fetch: Optional[Callable[..., Optional[dict]]] = None,
        detectors: Optional[Iterable] = None,
        timeout: float = 0.5,
        out: Optional[str] = None,
        on_event: Optional[Callable[[dict], None]] = None,
    ):
        from ..runtime.console import fetch_json

        self.endpoints = dict(endpoints)
        self.clock = clock
        self.fetch = fetch if fetch is not None else fetch_json
        self.timeout = timeout
        self.watchdog = Watchdog(detectors if detectors is not None else
                                 default_endpoint_detectors())
        self.out_path = out
        self._out = open(out, "w", encoding="utf-8") if out else None
        self.on_event = on_event
        self._seq = 0
        self.closed = False

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
        if self.on_event is not None:
            self.on_event(event)

    def step(self) -> dict:
        now = self.clock()
        unreachable: list[str] = []
        streams: dict[str, dict] = {}
        queue_depths: dict[str, float] = {}
        delivered = 0
        submitted = None
        for node, (host, port) in sorted(self.endpoints.items()):
            snapshot = self.fetch(host, port, "/health", timeout=self.timeout)
            if snapshot is None:
                unreachable.append(node)
                continue
            sample = sample_from_health(snapshot, node=node)
            delivered += sample.get("delivered", 0)
            if sample.get("submitted") is not None:
                submitted = (submitted or 0) + sample["submitted"]
            for stream, entry in sample["streams"].items():
                merged = streams.setdefault(
                    stream, {"low": None, "high": None}
                )
                low, high = entry.get("low"), entry.get("high")
                if low is not None and (merged["low"] is None
                                        or low < merged["low"]):
                    merged["low"] = low
                if high is not None and (merged["high"] is None
                                         or high > merged["high"]):
                    merged["high"] = high
            for dst, depth in sample.get("queue_depths", {}).items():
                queue_depths[f"{node}:{dst}"] = depth
        sample = {
            "at": now,
            "streams": streams,
            "delivered": delivered,
            "queue_depths": queue_depths,
            "unreachable": tuple(unreachable),
        }
        if submitted is not None:
            sample["submitted"] = submitted
        raised, cleared = self.watchdog.observe(sample)
        for alert in raised:
            self._record(
                "alert.raise", alert.at, detector=alert.detector,
                severity=alert.severity, message=alert.message,
                key=alert.key,
            )
        for alert in cleared:
            self._record(
                "alert.clear", now, detector=alert.detector, key=alert.key,
            )
        return {
            "unreachable": unreachable,
            "raised": raised,
            "cleared": cleared,
        }

    def summary(self) -> dict:
        return {
            "alerts": [a.to_json() for a in self.watchdog.history],
            "active_alerts": self.watchdog.active_alerts(),
            "health_score": self.watchdog.health_score(),
        }

    def close(self) -> dict:
        if not self.closed:
            self.closed = True
            summary = self.summary()
            self._record(
                "audit.check", self.clock(),
                events=self._seq, violations=0,
                alerts=len(summary["alerts"]),
                health_score=summary["health_score"], ok=True,
            )
            if self._out is not None:
                self._out.close()
                self._out = None
            self._summary = summary
        return self._summary
