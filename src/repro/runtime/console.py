"""``python -m repro top``: live console over the telemetry endpoints.

Reads the ``endpoints.json`` a live supervisor writes into its
``--telemetry-dir``, then polls every node's ``/health`` and
``/metrics.json`` endpoints and renders a terminal dashboard:
per-stream decide throughput, replica subscription/merge state, client
latency quantiles, and transport backpressure.  Runs in a *separate*
process from the cluster (its own short-lived event loop per scrape),
so it observes the run exactly the way an operator's Prometheus would.

:func:`render` is pure (snapshots in, text out) so tests can assert on
the dashboard without sockets; :func:`run_top` is the polling loop.

:func:`fetch_all` is the one scrape of a cluster's endpoints, shared
with ``repro watch endpoints.json``
(:class:`repro.obs.watch.EndpointsWatch`): every node at once through
the one HTTP client, :func:`repro.runtime.telemetry.http_json`,
each with the same short timeout.  One kill -9'd node costs at most
``timeout`` per frame, never ``N x timeout`` serial stalls -- the dead
node renders as ``(unreachable)`` while the survivors keep updating.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Optional, TextIO

from .telemetry import EndpointError, http_json

__all__ = ["ANSI_CLEAR", "fetch_all", "load_endpoints", "render", "run_top"]

ANSI_CLEAR = "\x1b[2J\x1b[H"


def load_endpoints(path: str) -> dict[str, tuple[str, int]]:
    """Parse ``endpoints.json`` into ``{node: (host, port)}``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    nodes = data.get("nodes", {})
    if not nodes:
        raise ValueError(f"{path}: no nodes listed")
    return {
        name: (info["host"], int(info["port"]))
        for name, info in sorted(nodes.items())
    }


def fetch_all(
    endpoints: dict[str, tuple[str, int]],
    path: str,
    timeout: float = 0.5,
) -> dict[str, Optional[dict]]:
    """GET one JSON path from every node at once.

    A node that refuses, errs or stays silent contributes ``None`` after
    at most ``timeout`` seconds, and cannot stall the other nodes'
    scrapes: they all wait on one event loop.
    """

    async def get(host: str, port: int) -> Optional[dict]:
        try:
            return await http_json(host, port, path, timeout=timeout)
        except EndpointError:
            return None

    async def scrape() -> list[Optional[dict]]:
        return await asyncio.gather(
            *(get(host, port) for host, port in endpoints.values())
        )

    return dict(zip(endpoints, asyncio.run(scrape())))


# Stage-level histograms of the latency-attribution plane
# (docs/OBSERVABILITY.md): rendered as a per-stage breakdown panel when
# any node reports them.
_STAGE_METRICS = {
    "batch_wait_ms": "batch wait",
    "decide_latency_ms": "quorum wait",
    "queue_wait_ms": "transport queue",
    "merge_hol_wait_ms": "merge head-of-line",
    "loop_lag_ms": "event-loop lag",
}


def _stage_rows(
    metrics: dict[str, Optional[dict]],
) -> list[tuple[str, str, str, int, float, float]]:
    rows: list[tuple[str, str, str, int, float, float]] = []
    for node in sorted(metrics):
        dump = metrics[node]
        if not dump:
            continue
        for entry in dump.get("histograms", ()):
            label = _STAGE_METRICS.get(entry.get("name", ""))
            if label is None or not entry.get("n") or entry.get("p50") is None:
                continue
            rows.append((
                node, entry.get("actor", "-"), label,
                entry["n"], entry["p50"], entry["p95"],
            ))
    return rows


def _client_latency(metrics: dict[str, Optional[dict]]) -> Optional[dict]:
    for dump in metrics.values():
        if not dump:
            continue
        for entry in dump.get("histograms", ()):
            if entry.get("name") == "latency_ms" and entry.get("n"):
                return entry
    return None


def _format_byte_rate(value: float) -> str:
    if value >= 1 << 20:
        return f"{value / (1 << 20):.1f}M"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f}K"
    return f"{value:.0f}"


def render(
    health: dict[str, Optional[dict]],
    metrics: dict[str, Optional[dict]],
    previous: Optional[dict[str, dict]] = None,
    interval: float = 1.0,
) -> str:
    """Render one dashboard frame from per-node snapshots.

    ``previous`` holds the prior tick's health snapshots; stream decide
    rates are the ``positions_decided`` delta over ``interval``.
    """
    previous = previous or {}
    lines: list[str] = []
    up = sum(1 for snapshot in health.values() if snapshot is not None)
    lines.append(
        f"repro top | {up}/{len(health)} nodes up | "
        f"refresh {interval:g}s | Ctrl-C to quit"
    )

    lines.append("")
    lines.append(
        f"{'NODE':<6}{'STREAM':<8}{'DECIDED':>9}{'RATE/S':>9}  LEADING"
    )
    for node in sorted(health):
        snapshot = health[node]
        if snapshot is None:
            lines.append(f"{node:<6}(unreachable)")
            continue
        streams = snapshot.get("streams", {})
        for stream in sorted(streams):
            entry = streams[stream]
            decided = entry.get("positions_decided", 0)
            prior = (previous.get(node) or {}).get("streams", {}).get(stream)
            if prior is not None and interval > 0:
                delta = max(0, decided - prior.get("positions_decided", 0))
                rate = f"{delta / interval:.1f}"
            else:
                rate = "-"
            leading = "yes" if entry.get("leading") else "no"
            lines.append(
                f"{node:<6}{stream:<8}{decided:>9}{rate:>9}  {leading}"
            )

    lines.append("")
    lines.append(
        f"{'NODE':<6}{'REPLICA':<9}{'DELIVERED':>10}  "
        f"{'SUBSCRIPTIONS':<18}MERGE"
    )
    for node in sorted(health):
        snapshot = health[node]
        if snapshot is None:
            continue
        replicas = snapshot.get("replicas", {})
        for name in sorted(replicas):
            entry = replicas[name]
            subs = ",".join(entry.get("subscriptions", ())) or "-"
            merge = (
                "switching" if entry.get("pending_subscription") else "steady"
            )
            lines.append(
                f"{node:<6}{name:<9}{entry.get('delivered', 0):>10}  "
                f"{subs:<18}{merge}"
            )

    lines.append("")
    lines.append(
        f"{'NODE':<6}{'SENT':>8}{'DELIVERED':>11}{'DROPPED':>9}"
        f"{'RECONNECTS':>12}{'PEAKQ':>7}  QUEUES"
    )
    for node in sorted(health):
        snapshot = health[node]
        if snapshot is None:
            continue
        transport = snapshot.get("transport", {})
        counters = transport.get("counters", {})
        depths = transport.get("queue_depths", {})
        busiest = sorted(
            depths.items(), key=lambda item: item[1], reverse=True
        )[:3]
        queues = (
            " ".join(f"{dst}:{depth}" for dst, depth in busiest if depth)
            or "idle"
        )
        lines.append(
            f"{node:<6}"
            f"{counters.get('messages_sent', 0):>8}"
            f"{counters.get('messages_delivered', 0):>11}"
            f"{counters.get('messages_dropped', 0):>9}"
            f"{counters.get('reconnect_attempts', 0):>12}"
            f"{counters.get('peak_send_queue', 0):>7}  {queues}"
        )

    # Writer-coalescing panel: how well the transport is amortising
    # syscalls (frames per flush) and the resulting wire throughput.
    lines.append("")
    lines.append(
        f"{'NODE':<6}{'FLUSHES':>9}{'COALESCED':>11}{'FR/FLUSH':>10}"
        f"{'BYTES/S':>10}"
    )
    for node in sorted(health):
        snapshot = health[node]
        if snapshot is None:
            continue
        counters = snapshot.get("transport", {}).get("counters", {})
        flushes = counters.get("writer_flushes", 0)
        coalesced = counters.get("frames_coalesced", 0)
        per_flush = f"{coalesced / flushes:.1f}" if flushes else "-"
        prior = (
            (previous.get(node) or {}).get("transport", {}).get("counters", {})
        )
        if prior and interval > 0:
            delta = max(
                0,
                counters.get("bytes_written", 0)
                - prior.get("bytes_written", 0),
            )
            rate = _format_byte_rate(delta / interval)
        else:
            rate = "-"
        lines.append(
            f"{node:<6}{flushes:>9}{coalesced:>11}{per_flush:>10}{rate:>10}"
        )

    # Watchdog panel (docs/OBSERVABILITY.md, "Online audit"): health
    # score + active alerts from each node's self-observing watchdog;
    # unreachable nodes are themselves rendered as a critical condition.
    alert_rows: list[tuple[str, str, str]] = []
    scores: list[str] = []
    for node in sorted(health):
        snapshot = health[node]
        if snapshot is None:
            alert_rows.append((node, "critical", "telemetry unreachable"))
            scores.append(f"{node}=?")
            continue
        score = snapshot.get("health_score")
        if score is not None:
            scores.append(f"{node}={score}")
        for alert in snapshot.get("alerts", ()):
            alert_rows.append((
                node,
                alert.get("severity", "warning"),
                f"{alert.get('detector', '?')}: "
                f"{alert.get('message', '')}",
            ))
    if alert_rows or scores:
        lines.append("")
        lines.append(
            f"health {' '.join(scores) if scores else '-'}"
        )
        if alert_rows:
            lines.append(f"{'NODE':<6}{'SEV':<10}ALERT")
            for node, severity, text in alert_rows:
                lines.append(f"{node:<6}{severity:<10}{text}")
        else:
            lines.append("alerts: none")

    stage_rows = _stage_rows(metrics)
    if stage_rows:
        lines.append("")
        lines.append(
            f"{'NODE':<6}{'ACTOR':<14}{'STAGE':<20}{'N':>7}"
            f"{'P50MS':>9}{'P95MS':>9}"
        )
        for node, actor, label, n, p50, p95 in stage_rows:
            lines.append(
                f"{node:<6}{actor:<14}{label:<20}{n:>7}{p50:>9.2f}{p95:>9.2f}"
            )

    lines.append("")
    submitted = None
    for snapshot in health.values():
        if snapshot and "client" in snapshot:
            submitted = snapshot["client"].get("submitted")
    latency = _client_latency(metrics)
    if latency is not None and latency.get("p50") is not None:
        latency_text = (
            f"latency p50 {latency['p50']:.1f} ms "
            f"p99 {latency['p99']:.1f} ms "
            f"({latency['n']} samples)"
        )
    else:
        latency_text = "latency n/a"
    lines.append(
        f"client: submitted {submitted if submitted is not None else '?'}"
        f" | {latency_text}"
    )
    return "\n".join(lines) + "\n"


def run_top(
    endpoints_path: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    stream: Optional[TextIO] = None,
    timeout: float = 0.5,
) -> int:
    """Poll the cluster's endpoints and redraw until interrupted.

    ``iterations`` bounds the number of frames (None = forever); tests
    and one-shot inspection pass ``iterations=1, clear=False``.
    ``timeout`` bounds each node's scrape: a kill -9'd worker marks its
    panels ``(unreachable)`` instead of freezing the whole console.
    """
    out = stream if stream is not None else sys.stdout
    endpoints = load_endpoints(endpoints_path)
    previous: dict[str, dict] = {}
    frames = 0
    try:
        while True:
            health = fetch_all(endpoints, "/health", timeout)
            metrics = fetch_all(endpoints, "/metrics.json", timeout)
            frame = render(health, metrics, previous, interval)
            if clear:
                out.write(ANSI_CLEAR)
            out.write(frame)
            out.flush()
            previous = {
                node: snapshot
                for node, snapshot in health.items()
                if snapshot is not None
            }
            frames += 1
            if iterations is not None and frames >= iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
