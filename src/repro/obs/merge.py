"""Clock-aligned merging of per-node live traces into one timeline.

A live multi-node run (``python -m repro live --nodes N
--telemetry-dir DIR``) streams one JSONL trace per node, each stamped
with that node's id and timed on that node's *local* wall clock
(seconds since its kernel started).  The clocks of two nodes never
start at the same instant, so the raw traces cannot simply be
concatenated: a message can appear to be delivered before it was
submitted.

This module turns those per-node traces into a single causally
consistent timeline that the existing tooling -- ``python -m repro
stats`` / ``validate-trace`` / ``watch`` and
:class:`repro.obs.spans.LifecycleIndex` -- consumes unchanged.  It is
the reduce end of :mod:`repro.obs.read`, whose reader (salvaging: a
kill -9'd node's torn last line is dropped), clock fold and message-id
rule it uses:

1. **Offset discovery.**  Each node's trace carries ``meta.clock``
   events the run driver had it write after an NTP-style handshake
   against the reference node's clock (offset = node clock minus
   reference clock, estimated from the minimum-RTT sample; see
   :meth:`repro.runtime.driver.RunDriver.sync_clocks`).  Explicit
   offsets override the recorded ones.
2. **Alignment.**  Every event's ``ts`` is shifted into the reference
   clock domain (``ts - offset``).
3. **Causal repair.**  Offset estimation is only RTT/2-accurate, so a
   residual skew can still invert a happened-before edge.  The merge
   therefore enforces two kinds of edges while interleaving: events of
   one node keep their local order, and the per-message lifecycle
   stages (submit -> propose -> phase2 -> decide -> learn -> deliver ->
   ack) stay non-decreasing in time: an event is clamped up to the
   latest of the earlier stages' *earliest* events, so one late copy of
   a stage (a restarted node's replay) raises nothing else.
4. **Renumbering.**  ``seq`` is reassigned globally monotone (the
   original per-node value survives as ``node_seq``), so the merged
   file passes the schema validator's monotonicity check.

The merged timeline opens with a ``meta.merge`` header naming the
nodes and the offsets that were applied; a reader that meets it shifts
nothing after it again.
"""

from __future__ import annotations

import heapq
import json
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .read import ClockAlignment, msg_ids, read_trace

__all__ = [
    "CAUSAL_STAGES",
    "cross_node_messages",
    "merge_events",
    "merge_files",
    "trace_offsets",
    "write_trace",
]

# Per-message lifecycle stage ranks: within one msg_id, an event of a
# later stage must not precede an event of an earlier one.
CAUSAL_STAGES: dict[str, int] = {
    "client.submit": 0,
    "coord.propose": 1,
    "coord.phase2": 2,
    "coord.decide": 3,
    "learner.learned": 4,
    "replica.deliver": 5,
    "client.ack": 6,
}


def write_trace(events: Iterable[dict], path: str) -> int:
    """Write events to ``path`` as JSONL; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def _node_of(events: Sequence[dict], fallback: str) -> str:
    for event in events:
        node = event.get("node")
        if node is not None:
            return node
    return fallback


def trace_offsets(traces: dict[str, list[dict]]) -> dict[str, float]:
    """``node -> offset`` by :class:`~repro.obs.read.ClockAlignment`:
    0.0 without a handshake, or for a timeline merged before."""
    clock = ClockAlignment()
    for events in traces.values():
        for event in events:
            clock.observe(event)
    return {node: clock.shift(node) for node in traces}


def merge_events(
    traces: dict[str, list[dict]],
    offsets: Optional[dict[str, float]] = None,
    header: bool = True,
) -> list[dict]:
    """Merge per-node event lists into one aligned, renumbered timeline.

    ``traces`` maps node id to that node's events (in emission order);
    ``offsets`` maps node id to its clock offset against the reference
    domain (discovered from ``meta.clock`` events when omitted).
    """
    if offsets is None:
        offsets = trace_offsets(traces)
    nodes = sorted(traces)
    # Working copies: shift every timestamp into the reference domain,
    # preserving each node's emission order.
    per_node: dict[str, list[dict]] = {}
    for node in nodes:
        aligned_events = []
        for event in traces[node]:
            aligned = dict(event)
            aligned["ts"] = float(event.get("ts", 0.0)) - offsets.get(node, 0.0)
            aligned["node"] = aligned.get("node", node)
            aligned["node_seq"] = event.get("seq")
            aligned_events.append(aligned)
        per_node[node] = aligned_events

    # Causal repair to fixpoint.  Clamping a too-early timestamp up to
    # its per-message stage floor can break the owning node's local
    # monotonicity and vice versa, so alternate the two passes until
    # neither changes anything; clamps only ever *raise* timestamps, so
    # this converges (the cap is a safety net, not an expected exit).
    for _ in range(16):
        changed = False
        staged: dict[object, list] = {}
        for node in nodes:
            for event in per_node[node]:
                rank = CAUSAL_STAGES.get(event.get("kind"))
                if rank is None:
                    continue
                for msg_id in msg_ids(event):
                    staged.setdefault(msg_id, []).append((rank, event))
        # A stage floors the stages after it at its *earliest* event: a
        # restarted incarnation replaying a message (a late learn) must
        # not raise another node's earlier delivery of it.
        for entries in staged.values():
            entries.sort(key=lambda pair: (pair[0], pair[1]["ts"]))
            floor = float("-inf")
            for _rank, stage in groupby(entries, key=itemgetter(0)):
                events = [event for _rank, event in stage]
                for event in events:
                    if event["ts"] < floor:
                        event["ts"] = floor
                        changed = True
                floor = events[0]["ts"]
        for node in nodes:
            floor = float("-inf")
            for event in per_node[node]:
                if event["ts"] < floor:
                    event["ts"] = floor
                    changed = True
                else:
                    floor = event["ts"]
        if not changed:
            break

    # K-way merge: every queue is now time-monotone, so popping the
    # smallest head yields a globally sorted timeline.  Equal
    # timestamps (the signature of a clamp) tie-break on lifecycle
    # stage rank so causal order holds in sequence too, then on node
    # (``heapq.merge`` takes the earlier input first).
    merged = list(heapq.merge(
        *(per_node[node] for node in nodes),
        key=lambda event: (
            event["ts"], CAUSAL_STAGES.get(event.get("kind"), -1)
        ),
    ))

    if header:
        first_ts = merged[0]["ts"] if merged else 0.0
        merged.insert(0, {
            "ts": first_ts,
            "seq": 0,
            "kind": "meta.merge",
            "cat": "meta",
            "nodes": nodes,
            "offsets": {node: offsets.get(node, 0.0) for node in nodes},
        })
    for seq, event in enumerate(merged):
        event["seq"] = seq
    return merged


def merge_files(
    paths: Sequence[str],
    out: Optional[str] = None,
    offsets: Optional[dict[str, float]] = None,
) -> list[dict]:
    """Merge per-node trace files; optionally write the result to ``out``.

    Reads tolerantly (``skip_malformed``): a node that died by kill -9
    leaves a torn final line, and the merged timeline must still carry
    everything that node flushed before dying.
    """
    traces: dict[str, list[dict]] = {}
    for index, path in enumerate(paths):
        events = read_trace(path, skip_malformed=True)
        node = _node_of(events, f"node{index + 1}")
        traces.setdefault(node, []).extend(events)
    merged = merge_events(traces, offsets=offsets)
    if out is not None:
        write_trace(merged, out)
    return merged


def cross_node_messages(events: Iterable[dict]) -> dict[object, set]:
    """Messages whose lifecycle events span more than one node.

    Returns ``msg_id -> {nodes}`` restricted to messages observed on at
    least two distinct nodes -- the live acceptance check that a
    message's lifecycle (submit -> decide -> deliver) really crossed
    the wire.
    """
    seen: dict[object, set] = {}
    for event in events:
        if event.get("kind") not in CAUSAL_STAGES:
            continue
        node = event.get("node")
        if node is None:
            continue
        for mid in msg_ids(event):
            seen.setdefault(mid, set()).add(node)
    return {mid: nodes for mid, nodes in seen.items() if len(nodes) > 1}
