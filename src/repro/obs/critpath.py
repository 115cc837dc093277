"""Per-message critical-path extraction and latency-budget reports.

Decomposes each delivered message's end-to-end latency (client submit to
first replica delivery) into named segments over a
:class:`~repro.obs.spans.LifecycleIndex`:

==================  ====================================================
``submit->propose``  client transit + coordinator admission
``batch_wait``       coordinator batching/throttle/CPU (propose->phase2)
``quorum_wait``      Phase 2 quorum / ring traversal (phase2->decide)
``dissemination``    decision fan-out to the first learner (decide->learn)
``merge_wait``       dMerge head-of-line wait (learn->deliver)
==================  ====================================================

The five segments telescope -- consecutive stage boundaries along the
submit -> first-deliver path, forced monotone and clamped into the
[submit, first-deliver] window -- so a complete lifecycle is attributed
100% by construction even when clock skew on a merged trace stamps a
boundary out of order.  On top of the per-segment p50/p99 budget the
report attributes *who* to blame:

- **stragglers** -- which acceptor's 2b (classic mode) or ring decision
  (``closed_by`` on ``coord.decide``) closed each instance's quorum;
- **blockers** -- which stream the dMerge round-robin was waiting on
  during each message's merge wait (``merge.head_of_line`` episodes);
- **transport** (live traces only) -- send-queue wait vs. wire+decode
  time, from ``transport.queue_wait`` and ``net.context`` arrivals with
  ``origin_ts`` sender clocks re-aligned via the trace-merge offsets.
  A frame carries the pair for one ``msg_id`` (a submission batch's
  first value), so the split is a sample: its distributions are taken
  over the messages that have it, and say how many those were.

Works on sim traces (``python -m repro trace``) and on ``trace-merge``d
multi-node live timelines alike; exposed as ``python -m repro latency``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..quantiles import percentile
from .spans import LifecycleIndex

__all__ = [
    "BUDGET_FORMAT",
    "SEGMENTS",
    "CriticalPath",
    "budget_lines",
    "diff_budgets",
    "extract_critical_paths",
    "latency_budget",
]

BUDGET_FORMAT = "repro-latency-budget/1"

SEGMENTS = (
    ("submit->propose", "client transit + coordinator admission"),
    ("batch_wait", "coordinator batching/throttle/CPU"),
    ("quorum_wait", "Phase 2 quorum / ring traversal"),
    ("dissemination", "decision fan-out to first learner"),
    ("merge_wait", "dMerge head-of-line wait"),
)
SEGMENT_NAMES = tuple(name for name, _ in SEGMENTS)


def _clamp(value: float) -> float:
    return value if value > 0.0 else 0.0


def _round(value: float, digits: int = 6) -> float:
    return round(value, digits)


def _dist_ms(values: list[float]) -> dict:
    """Count/mean/p50/p99 of a latency sample set, in milliseconds."""
    if not values:
        return {"n": 0, "mean": None, "p50": None, "p99": None}
    return {
        "n": len(values),
        "mean": _round(1000.0 * sum(values) / len(values)),
        "p50": _round(1000.0 * percentile(values, 50)),
        "p99": _round(1000.0 * percentile(values, 99)),
    }


@dataclass
class CriticalPath:
    """One message's decomposed submit -> first-deliver path."""

    msg_id: int
    stream: Optional[str]
    total: float                         # end-to-end seconds
    segments: dict[str, float] = field(default_factory=dict)
    closed_by: Optional[str] = None      # acceptor that closed the quorum
    blocking_stream: Optional[str] = None  # stream blamed for merge_wait
    # Transport send-queue wait, and transit minus that wait: None
    # where no frame was traced under this msg_id (sim; the later values
    # of a live submission batch).
    queue_wait: Optional[float] = None
    wire_wait: Optional[float] = None


class _EpisodeIndex:
    """Per-replica ``merge.head_of_line`` episodes, searchable by time.

    Episodes at one replica are sequential (the merger blocks on one
    stream at a time), so both starts and ends are monotone and the
    overlap scan can bisect in and break out early.
    """

    def __init__(self, index: LifecycleIndex):
        by_replica: dict[str, list[tuple[float, float, str]]] = {}
        for replica, end, waited, stream in index.hol_episodes:
            by_replica.setdefault(replica, []).append((end - waited, end, stream))
        self._by_replica = {
            replica: sorted(episodes)
            for replica, episodes in by_replica.items()
        }
        self._ends = {
            replica: [end for (_, end, _) in episodes]
            for replica, episodes in self._by_replica.items()
        }

    def blame(self, replica: str, start: float, end: float) -> Optional[str]:
        """The stream whose episode overlaps [start, end] the longest."""
        episodes = self._by_replica.get(replica)
        if not episodes or end < start:
            return None
        best_stream: Optional[str] = None
        best_overlap = 0.0
        for i in range(bisect_right(self._ends[replica], start), len(episodes)):
            ep_start, ep_end, stream = episodes[i]
            if ep_start > end:
                break
            overlap = min(ep_end, end) - max(ep_start, start)
            if overlap > best_overlap:
                best_overlap = overlap
                best_stream = stream
        return best_stream


def extract_critical_paths(index: LifecycleIndex) -> list[CriticalPath]:
    """One :class:`CriticalPath` per *complete* lifecycle, by msg_id."""
    episodes = _EpisodeIndex(index)
    offsets = index.clock.offsets
    paths: list[CriticalPath] = []
    for msg_id in sorted(index.messages):
        m = index.messages[msg_id]
        if not m.complete:
            continue
        first_learn = min(m.learned_at.values())
        deliver_replica = min(
            m.delivered_at, key=lambda r: (m.delivered_at[r], r)
        )
        first_deliver = m.delivered_at[deliver_replica]
        # Telescope over *monotone* boundaries: each raw timestamp is
        # clamped into [previous boundary, first_deliver], so on a
        # skewed merged trace a late-stamped boundary truncates its
        # segment instead of double-counting the overlap -- the five
        # segments always partition submit->first_deliver exactly.
        boundaries = []
        previous = m.submitted_at
        for raw in (m.proposed_at, m.phase2_at, m.decided_at,
                    first_learn, first_deliver):
            previous = min(max(previous, raw), first_deliver)
            boundaries.append(previous)
        segments = {
            name: _clamp(boundary - start)
            for name, start, boundary in zip(
                SEGMENT_NAMES, [m.submitted_at] + boundaries[:-1], boundaries
            )
        }
        transit = 0.0
        for ts, origin, origin_ts in m.context_arrivals:
            if origin_ts is None:
                continue
            transit += _clamp(ts - (origin_ts - offsets.get(origin, 0.0)))
        sampled = bool(m.queue_wait_events or m.context_arrivals)
        paths.append(
            CriticalPath(
                msg_id=msg_id,
                stream=m.stream,
                total=_clamp(first_deliver - m.submitted_at),
                segments=segments,
                closed_by=m.closed_by,
                blocking_stream=episodes.blame(
                    deliver_replica,
                    m.learned_at.get(deliver_replica, first_learn),
                    first_deliver,
                ),
                queue_wait=m.queue_wait if sampled else None,
                wire_wait=(
                    _clamp(transit - m.queue_wait) if sampled else None
                ),
            )
        )
    return paths


def latency_budget(index: LifecycleIndex) -> dict:
    """Aggregate critical paths into the latency-budget report."""
    paths = extract_critical_paths(index)
    complete, delivered = index.coverage()
    totals = [p.total for p in paths]
    budget: dict = {
        "format": BUDGET_FORMAT,
        "messages": {
            "observed": len(index.messages),
            "delivered": delivered,
            "complete": complete,
        },
        "coverage": _round(complete / delivered) if delivered else 0.0,
        "total_ms": _dist_ms(totals),
        "segments": [],
        "attributed_share": 0.0,
        "stragglers": [],
        "blockers": [],
        "transport_ms": None,
    }
    if not paths:
        return budget
    mean_total = sum(totals) / len(totals)
    attributed = 0.0
    for name, description in SEGMENTS:
        values = [p.segments[name] for p in paths]
        mean = sum(values) / len(values)
        attributed += mean
        entry = _dist_ms(values)
        entry["name"] = name
        entry["description"] = description
        entry["share"] = _round(mean / mean_total) if mean_total > 0 else 0.0
        budget["segments"].append(entry)
    budget["attributed_share"] = (
        _round(attributed / mean_total) if mean_total > 0 else 1.0
    )

    closers = Counter(p.closed_by for p in paths if p.closed_by is not None)
    closed_total = sum(closers.values())
    budget["stragglers"] = [
        {
            "acceptor": acceptor,
            "closed": count,
            "share": _round(count / closed_total),
        }
        for acceptor, count in sorted(
            closers.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
    ]

    blocker_wait: dict[str, float] = {}
    blocker_msgs: Counter = Counter()
    for p in paths:
        if p.blocking_stream is not None:
            wait = p.segments["merge_wait"]
            blocker_wait[p.blocking_stream] = (
                blocker_wait.get(p.blocking_stream, 0.0) + wait
            )
            blocker_msgs[p.blocking_stream] += 1
    blocked_total = sum(blocker_wait.values())
    budget["blockers"] = [
        {
            "stream": stream,
            "messages": blocker_msgs[stream],
            "wait_ms": _round(1000.0 * wait),
            "share": _round(wait / blocked_total) if blocked_total > 0 else 0.0,
        }
        for stream, wait in sorted(
            blocker_wait.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
    ]

    queue = [p.queue_wait for p in paths if p.queue_wait is not None]
    wire = [p.wire_wait for p in paths if p.wire_wait is not None]
    if any(q > 0.0 for q in queue) or any(w > 0.0 for w in wire):
        budget["transport_ms"] = {
            "queue": _dist_ms(queue),
            "wire": _dist_ms(wire),
        }
    return budget


def _fmt_ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def budget_lines(budget: dict) -> list[str]:
    """Human-readable rendering of a latency-budget report."""
    msgs = budget["messages"]
    lines = [
        f"messages: observed {msgs['observed']}, delivered "
        f"{msgs['delivered']}, complete {msgs['complete']} "
        f"(coverage {100.0 * budget['coverage']:.1f}%)",
    ]
    total = budget["total_ms"]
    lines.append(
        f"end-to-end submit->deliver: n={total['n']} "
        f"mean={_fmt_ms(total['mean'])}ms p50={_fmt_ms(total['p50'])}ms "
        f"p99={_fmt_ms(total['p99'])}ms"
    )
    if not budget["segments"]:
        lines.append("no complete lifecycles -- nothing to attribute")
        return lines
    lines.append("")
    lines.append(
        f"{'SEGMENT':<17}{'P50MS':>10}{'P99MS':>10}{'MEANMS':>10}{'SHARE':>8}"
        "  WHAT"
    )
    for seg in budget["segments"]:
        lines.append(
            f"{seg['name']:<17}{_fmt_ms(seg['p50']):>10}"
            f"{_fmt_ms(seg['p99']):>10}{_fmt_ms(seg['mean']):>10}"
            f"{100.0 * seg['share']:>7.1f}%  {seg['description']}"
        )
    lines.append(
        f"attributed: {100.0 * budget['attributed_share']:.1f}% of mean "
        "end-to-end latency in named segments"
    )
    if budget["stragglers"]:
        lines.append("")
        lines.append("quorum stragglers (who closed each instance):")
        for s in budget["stragglers"]:
            lines.append(
                f"  {s['acceptor']:<14} closed {s['closed']} "
                f"({100.0 * s['share']:.1f}%)"
            )
    if budget["blockers"]:
        lines.append("")
        lines.append("merge head-of-line blockers (stream being waited on):")
        for b in budget["blockers"]:
            lines.append(
                f"  {b['stream']:<14} blocked {b['messages']} msgs, "
                f"{b['wait_ms']:.3f}ms total ({100.0 * b['share']:.1f}%)"
            )
    transport = budget.get("transport_ms")
    if transport:
        q, w = transport["queue"], transport["wire"]
        lines.append("")
        lines.append(
            f"transport (live, {q['n']} sampled): "
            f"queue p50={_fmt_ms(q['p50'])}ms "
            f"p99={_fmt_ms(q['p99'])}ms / wire+decode p50={_fmt_ms(w['p50'])}ms "
            f"p99={_fmt_ms(w['p99'])}ms"
        )
    return lines


def diff_budgets(base: dict, other: dict) -> list[str]:
    """Per-segment p50/p99/share deltas of ``other`` vs ``base``."""

    def delta(new: Optional[float], old: Optional[float]) -> str:
        if new is None or old is None:
            return "-"
        return f"{new - old:+.3f}"

    lines = [
        f"{'SEGMENT':<17}{'DP50MS':>10}{'DP99MS':>10}{'DSHARE':>9}"
    ]
    base_segs = {seg["name"]: seg for seg in base.get("segments", [])}
    for seg in other.get("segments", []):
        old = base_segs.get(seg["name"])
        if old is None:
            lines.append(f"{seg['name']:<17}{'new':>10}{'new':>10}{'new':>9}")
            continue
        share = (
            f"{100.0 * (seg['share'] - old['share']):+.1f}%"
            if seg["share"] is not None and old["share"] is not None
            else "-"
        )
        lines.append(
            f"{seg['name']:<17}{delta(seg['p50'], old['p50']):>10}"
            f"{delta(seg['p99'], old['p99']):>10}{share:>9}"
        )
    t_new, t_old = other.get("total_ms", {}), base.get("total_ms", {})
    lines.append(
        f"{'TOTAL':<17}{delta(t_new.get('p50'), t_old.get('p50')):>10}"
        f"{delta(t_new.get('p99'), t_old.get('p99')):>10}"
    )
    return lines


def load_budget(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        budget = json.load(handle)
    if budget.get("format") != BUDGET_FORMAT:
        raise ValueError(
            f"{path}: not a {BUDGET_FORMAT} report "
            f"(format={budget.get('format')!r})"
        )
    return budget


def write_budget(budget: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(budget, handle, indent=2, sort_keys=True)
        handle.write("\n")
