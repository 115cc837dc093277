"""Online safety certifier: stream the paper's invariants, live.

``repro.faults.invariants`` checks Elastic Paxos's safety properties
*in-process* and the golden digests check them *post-hoc*; this module
checks them *while the cluster runs*, from the outside, with nothing
but the per-node JSONL traces every live/deploy run already writes, as
the read side (:mod:`repro.obs.read`) tails or drains them.

:class:`SafetyCertifier` maps ``replica.deliver`` and
``merge.subscribe.commit`` events onto a :class:`repro.spec.SafetySpec`
-- the one statement of the safety properties, shared with the
in-process suite, so a live tail, a post-hoc ``repro watch <finished
run>`` and the workers' own checks all run the same reducer -- and
keeps beside it what is not a safety property: per-stream
propose/decide accounting, delivery watermarks and **reconfiguration
liveness** (a requested subscribe/split/replace must commit within a
bound; surfaced through :meth:`~SafetyCertifier.watch_sample` as a
pending age, alerted by the watchdog -- a liveness miss is an alert,
not a safety violation).

Timestamps are put on the reference clock by the read side's clock fold
(:class:`repro.obs.read.ClockAlignment`); ``self.now`` is the aligned
high-watermark of trace time and is the clock every staleness measure
runs on (so post-hoc certification of a finished run sees the same
ages a live tail did).  State is bounded: the spec retires its oldest
per-position entries beyond ``_COMPACT_LIMIT`` per stream/group (the
documented memory/coverage tradeoff for day-long runs, see
:mod:`repro.spec`).

A kill -9'd worker restarts as a *new incarnation* with a fresh trace
node id (``n3-r1``) and replays its deliveries from the start; the
certifier names observers ``trace_node/replica``, so the replay is a
new observer agreeing with the canonical sequence, not a duplicate
delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..spec import SafetySpec, Violation
from .read import ClockAlignment

__all__ = ["AuditViolation", "SafetyCertifier"]

# Per-position entries the spec keeps per stream/group before it
# retires the oldest (see SafetyCertifier).
_COMPACT_LIMIT = 100_000


# -- certifier ---------------------------------------------------------

class AuditViolation(Violation):
    """A :class:`repro.spec.Violation` as alert logs and manifests
    carry it (``at`` is aligned trace time; the observer is the
    ``trace_node/replica`` under ``"replica"``)."""

    __slots__ = ()

    def to_json(self) -> dict:
        payload = {"property": self.property, "message": self.message,
                   "at": self.at}
        for key, value in (("stream", self.stream),
                           ("position", self.position),
                           ("msg_id", self.msg_id),
                           ("replica", self.observer)):
            if value is not None:
                payload[key] = value
        return payload


class _StreamState:
    """Per-stream accounting that is not a safety property."""

    __slots__ = ("high", "delivered", "pending_proposes",
                 "first_pending_at", "last_decide_at")

    def __init__(self) -> None:
        self.high = 0                        # max position delivered
        self.delivered = 0
        self.pending_proposes = 0            # proposes since the last decide
        self.first_pending_at: Optional[float] = None
        self.last_decide_at: Optional[float] = None


@dataclass
class _Reconfig:
    stream: str
    requested_at: float
    begins: set = field(default_factory=set)
    commits: set = field(default_factory=set)

    @property
    def committed(self) -> bool:
        return bool(self.commits) and self.commits >= self.begins


class SafetyCertifier:
    """Streaming checker of the paper's safety properties (module doc)."""

    def __init__(self):
        self.spec = SafetySpec(bound=_COMPACT_LIMIT)
        self.clock = ClockAlignment()
        self.streams: dict[str, _StreamState] = {}
        self.reconfigs: dict[Any, _Reconfig] = {}
        self.violations: list[AuditViolation] = []
        self.worker_violations: list[str] = []     # invariant.* from nodes
        self.now = 0.0                             # aligned trace time
        self.events = 0
        self.submitted = 0
        self.acyclic_checks = 0
        self._retired: dict[str, set] = {}         # stream -> observers

    # -- helpers ------------------------------------------------------

    def _stream(self, name: str) -> _StreamState:
        state = self.streams.get(name)
        if state is None:
            state = self.streams[name] = _StreamState()
        return state

    def _proved(self, found: Iterable[Violation]) -> list[AuditViolation]:
        fresh = [AuditViolation(*violation) for violation in found]
        self.violations.extend(fresh)
        return fresh

    # -- ingest -------------------------------------------------------

    def observe(self, event: dict) -> list[AuditViolation]:
        """Feed one trace event; returns any *new* violations."""
        self.events += 1
        kind = event.get("kind")
        node = str(event.get("node", ""))

        self.clock.observe(event)
        if kind == "meta.clock":
            return []

        at = float(event.get("ts", 0.0)) - self.clock.shift(node)
        if at > self.now:
            self.now = at

        if kind == "replica.deliver":
            return self._observe_deliver(event, node, at)
        elif kind == "coord.decide":
            state = self._stream(str(event.get("stream", "")))
            state.pending_proposes = 0
            state.first_pending_at = None
            state.last_decide_at = at
        elif kind == "coord.propose":
            state = self._stream(str(event.get("stream", "")))
            state.pending_proposes += 1
            if state.first_pending_at is None:
                state.first_pending_at = at
        elif kind == "client.submit":
            self.submitted += 1
        elif kind in ("control.subscribe", "control.prepare",
                      "control.unsubscribe"):
            if event.get("request_id") is not None:
                self._reconfig_for(event, at)
        elif kind == "merge.subscribe.begin":
            reconfig = self._reconfig_for(event, at)
            reconfig.begins.add(self._observer_key(event, node))
        elif kind == "merge.subscribe.commit":
            return self._observe_commit(event, node, at)
        elif kind == "merge.unsubscribe":
            reconfig = self._reconfig_for(event, at)
            key = self._observer_key(event, node)
            reconfig.begins.add(key)
            reconfig.commits.add(key)
            # The observer stops delivering this stream on purpose; do
            # not count its frozen position against the low watermark.
            self._retired.setdefault(
                str(event.get("stream", "")), set()
            ).add(key)
        elif kind in ("invariant.violation", "meta.violation"):
            self.worker_violations.append(
                f"{node}: {event.get('message', kind)}"
            )
        return []

    def _observer_key(self, event: dict, node: str) -> str:
        return f"{node}/{event.get('replica', '')}"

    def _reconfig_for(self, event: dict, at: float) -> _Reconfig:
        request_id = event.get("request_id")
        reconfig = self.reconfigs.get(request_id)
        if reconfig is None:
            reconfig = self.reconfigs[request_id] = _Reconfig(
                stream=str(event.get("stream", "")), requested_at=at,
            )
        return reconfig

    def _observe_deliver(self, event: dict, node: str,
                         at: float) -> list[AuditViolation]:
        stream = str(event.get("stream", ""))
        position = int(event.get("position", 0))
        key = self._observer_key(event, node)
        state = self._stream(stream)
        state.delivered += 1
        if position > state.high:
            state.high = position
        retired = self._retired.get(stream)
        if retired is not None:
            retired.discard(key)     # delivering again: not retired
        return self._proved(self.spec.deliver(
            key, str(event.get("group", "")), stream, position,
            event.get("msg_id"), at,
        ))

    def _observe_commit(self, event: dict, node: str,
                        at: float) -> list[AuditViolation]:
        reconfig = self._reconfig_for(event, at)
        key = self._observer_key(event, node)
        reconfig.begins.add(key)
        reconfig.commits.add(key)
        merge_point = event.get("merge_point")
        if merge_point is None:
            return []
        return self._proved(
            violation._replace(stream=reconfig.stream)
            for violation in self.spec.merge_point(
                key, str(event.get("group", "")), event.get("request_id"),
                merge_point, at,
            )
        )

    def check_acyclic(self) -> list[AuditViolation]:
        """Uniform acyclic order across groups, over the spec's retained
        canonical sequences (the search itself runs only when one grew)."""
        self.acyclic_checks += 1
        return self._proved(self.spec.check_acyclic(self.now))

    # -- snapshots ----------------------------------------------------

    def watermarks(self) -> dict[str, dict]:
        """Per-stream ``{"low", "high"}`` delivery watermarks.

        ``high`` is the max position any observer delivered; ``low`` the
        min across observers still expected to deliver the stream
        (observers that explicitly unsubscribed are excluded -- their
        frozen position is intentional, not a stall).
        """
        marks: dict[str, dict] = {}
        lows: dict[str, int] = {}
        for key, observer in self.spec.observers.items():
            for stream, position in observer.positions.items():
                if key in self._retired.get(stream, ()):
                    continue
                if stream not in lows or position < lows[stream]:
                    lows[stream] = position
        for stream, state in self.streams.items():
            marks[stream] = {
                "low": lows.get(stream, state.high),
                "high": state.high,
            }
        return marks

    def watch_sample(self) -> dict:
        """The watchdog's view of the certifier (see
        :func:`repro.obs.watch.sample_from_certifier`)."""
        streams: dict[str, dict] = {}
        marks = self.watermarks()
        for stream, state in self.streams.items():
            entry = dict(marks.get(stream, {"low": 0, "high": state.high}))
            entry["pending"] = state.pending_proposes
            entry["pending_age"] = (
                None if state.first_pending_at is None
                else max(0.0, self.now - state.first_pending_at)
            )
            entry["decide_age"] = (
                None if state.last_decide_at is None
                else max(0.0, self.now - state.last_decide_at)
            )
            streams[stream] = entry
        pending_reconfigs = {
            str(request_id): max(0.0, self.now - reconfig.requested_at)
            for request_id, reconfig in self.reconfigs.items()
            if not reconfig.committed
        }
        return {
            "at": self.now,
            "streams": streams,
            "delivered": sum(s.delivered for s in self.streams.values()),
            "submitted": self.submitted,
            "pending_reconfigs": pending_reconfigs,
            "clock_offsets": dict(self.clock.offsets),
            "clock_rtts": dict(self.clock.rtts),
        }

    def summary(self) -> dict:
        """Aggregate audit verdict (embedded in deploy manifests)."""
        return {
            "events": self.events,
            "now": self.now,
            "replicas": len(self.spec.observers),
            "groups": len(self.spec.groups),
            "streams": sorted(self.streams),
            "delivered": sum(s.delivered for s in self.streams.values()),
            "watermarks": self.watermarks(),
            "violations": [v.to_json() for v in self.violations],
            "worker_violations": list(self.worker_violations),
            "acyclic_checks": self.acyclic_checks,
            "ok": not self.violations,
        }
