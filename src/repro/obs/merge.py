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
stats`` / ``validate-trace`` and :class:`repro.obs.spans.LifecycleIndex`
-- consumes unchanged:

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
   ack) stay non-decreasing in time, clamping a too-early timestamp up
   to the stage floor.
4. **Renumbering.**  ``seq`` is reassigned globally monotone (the
   original per-node value survives as ``node_seq``), so the merged
   file passes the schema validator's monotonicity check.

The merged timeline opens with a ``meta.merge`` header naming the
nodes and the offsets that were applied.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence, TextIO, Union

__all__ = [
    "CAUSAL_STAGES",
    "cross_node_messages",
    "merge_events",
    "merge_files",
    "read_trace",
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


def read_trace(
    source: Union[str, TextIO, Iterable[str]],
    skip_malformed: bool = False,
) -> list[dict]:
    """Load a JSONL trace into a list of event dicts.

    With ``skip_malformed`` unparsable lines are dropped instead of
    raising.  A trace from a kill -9'd worker legitimately ends in a
    torn tail -- the sink's buffered write dies mid-line -- and the
    merge tool must salvage every complete event before it, so
    :func:`merge_files` reads with this on.  Non-dict lines (a bare
    JSON number or string that happens to parse) are skipped too.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_trace(handle, skip_malformed=skip_malformed)
    events = []
    for line in source:
        if not line.strip():
            continue
        if skip_malformed:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
        else:
            events.append(json.loads(line))
    return events


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
    """Clock offsets recorded in the traces' ``meta.clock`` events.

    Returns ``node -> offset`` where ``offset`` is the node's clock
    minus the reference node's clock; nodes without a recorded
    handshake default to 0.0 (same clock domain as the reference).
    The *last* handshake per node wins.
    """
    offsets = {node: 0.0 for node in traces}
    for node, events in traces.items():
        for event in events:
            if event.get("kind") == "meta.clock":
                offsets[event.get("node", node)] = float(event["offset"])
    return offsets


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

    def msg_ids_of(event: dict) -> tuple:
        msg_id = event.get("msg_id")
        if msg_id is not None:
            return (msg_id,)
        return tuple(event.get("msg_ids") or ())

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
                for msg_id in msg_ids_of(event):
                    staged.setdefault(msg_id, []).append((rank, event))
        for entries in staged.values():
            entries.sort(key=lambda pair: (pair[0], pair[1]["ts"]))
            floor = float("-inf")
            for _rank, event in entries:
                if event["ts"] < floor:
                    event["ts"] = floor
                    changed = True
                else:
                    floor = event["ts"]
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
    # stage rank so causal order holds in sequence too.
    heads = {node: 0 for node in nodes}
    merged: list[dict] = []
    while True:
        best_key = None
        best_node = None
        for node in nodes:
            index = heads[node]
            if index >= len(per_node[node]):
                continue
            event = per_node[node][index]
            key = (event["ts"], CAUSAL_STAGES.get(event.get("kind"), -1), node)
            if best_key is None or key < best_key:
                best_key, best_node = key, node
        if best_node is None:
            break
        merged.append(per_node[best_node][heads[best_node]])
        heads[best_node] += 1

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
        msg_id = event.get("msg_id")
        ids = (msg_id,) if msg_id is not None else tuple(event.get("msg_ids") or ())
        for mid in ids:
            seen.setdefault(mid, set()).add(node)
    return {mid: nodes for mid, nodes in seen.items() if len(nodes) > 1}
