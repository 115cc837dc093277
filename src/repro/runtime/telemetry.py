"""Per-node telemetry plane for the live runtime.

Every node of a live deployment (``python -m repro live --nodes N
--telemetry-dir DIR``) owns one :class:`NodeTelemetry`:

* a node-stamped :class:`~repro.obs.trace.Tracer` streaming JSONL to
  ``DIR/<node>.trace.jsonl`` (plus a :class:`FlightRecorder` ring
  buffer, dumped on invariant violations);
* a :class:`~repro.obs.metrics.MetricsRegistry` bound to the node's
  kernel clock;
* a tiny HTTP/1.0 endpoint (:class:`TelemetryServer`), the node's one
  request/response listener, serving

  ========================  ==========================================
  ``GET /metrics``          Prometheus text exposition
  ``GET /metrics.json``     the ``repro-metrics/1`` registry dump
  ``GET /health``           heartbeat: last-delivered position per
                            stream, subscription state, transport
                            queue depths and counters, plus the
                            watchdog's health score + active alerts
  ``GET /alerts``           the watchdog alone: health score, active
                            alerts, total raised
  ``GET /profile``          flamegraph-collapsed stacks sampled so far
  ``GET /profile/start``    start the node's background stack sampler
  ``GET /profile/stop``     stop it (samples are kept for ``/profile``)
  ``POST /op/<name>``       a deploy worker's op table
                            (:class:`~repro.runtime.node.NodeOps`):
                            the params as a JSON object body, the
                            result as JSON
  ========================  ==========================================

:func:`http_json` is the one client of it: the in-process supervisor
scrapes ``/health`` so every node's watchdog evaluates itself, ``python
-m repro top`` renders the same endpoints as a live console, and the
deploy supervisor's worker handles call the ops.  Any failure -- a
refused or closed connection, a timeout, a failed op -- raises
:class:`EndpointError`.  Clock alignment reads the node clocks through
the ``clock`` op (:mod:`repro.runtime.driver`), which feeds
:func:`estimate_offset`.
"""

from __future__ import annotations

import asyncio
import json
import re
from http import HTTPStatus
from typing import Any, Callable, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder
from ..obs.trace import DEFAULT_CATEGORIES, JsonlSink, Tracer
from ..obs.watch import Watchdog, default_node_detectors, sample_from_health
from .profiling import StackSampler

__all__ = [
    "CLOCK_SYNC_SAMPLES",
    "EndpointError",
    "NodeTelemetry",
    "TelemetryServer",
    "aggregate_dumps",
    "estimate_offset",
    "http_json",
    "prometheus_text",
]

_UNSAFE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return _UNSAFE.sub("_", name.strip()).lower()


def _prom_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def prometheus_text(dump: dict, node: Optional[str] = None) -> str:
    """Render a ``repro-metrics/1`` dump as Prometheus text exposition.

    Counters become ``repro_<name>_total``, gauges ``repro_<name>``
    (last sample) plus ``repro_<name>_peak``, histograms quantile
    series ``repro_<name>{quantile=...}`` with ``_count``; every series
    carries an ``actor`` label (and ``node`` when given).  Instruments
    with no samples are skipped -- Prometheus has no null -- but stay
    present in the JSON dump.
    """
    lines: list[str] = []

    def labels(actor: str, extra: str = "") -> str:
        parts = [f'actor="{_prom_label(actor)}"']
        if node is not None:
            parts.append(f'node="{_prom_label(node)}"')
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}"

    for entry in dump.get("counters", ()):
        metric = f"repro_{_prom_name(entry['name'])}_total"
        lines.append(f"{metric}{labels(entry['actor'])} {entry['total']:g}")
    for entry in dump.get("gauges", ()):
        if entry.get("last") is None:
            continue
        metric = f"repro_{_prom_name(entry['name'])}"
        lines.append(f"{metric}{labels(entry['actor'])} {entry['last']:g}")
        lines.append(
            f"{metric}_peak{labels(entry['actor'])} {entry['peak']:g}"
        )
    for entry in dump.get("histograms", ()):
        metric = f"repro_{_prom_name(entry['name'])}"
        lines.append(f"{metric}_count{labels(entry['actor'])} {entry['n']:g}")
        if entry.get("mean") is None:
            continue
        lines.append(f"{metric}_mean{labels(entry['actor'])} {entry['mean']:g}")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            value = entry.get(key)
            if value is not None:
                extra = 'quantile="%s"' % quantile
                lines.append(
                    f"{metric}{labels(entry['actor'], extra)} {value:g}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


CLOCK_SYNC_SAMPLES = 5      # round trips per node the run driver estimates from


def estimate_offset(
    samples: list[tuple[float, float, float]],
) -> tuple[float, float]:
    """NTP-style offset from ``(t0, server_now, t3)`` round trips.

    ``t0``/``t3`` are reference-clock reads around the request,
    ``server_now`` the target node's clock read in between.  Picks the
    minimum-RTT sample (least queueing noise) and returns
    ``(offset, rtt)`` where ``offset`` is the target clock minus the
    reference clock.
    """
    if not samples:
        raise ValueError("no handshake samples")
    best_offset, best_rtt = 0.0, float("inf")
    for t0, server_now, t3 in samples:
        rtt = t3 - t0
        if rtt < best_rtt:
            best_rtt = rtt
            best_offset = server_now - (t0 + t3) / 2.0
    return best_offset, best_rtt


# -- minimal HTTP ------------------------------------------------------

# An op's params and result are small (status dumps, address maps); a
# body claiming to be bigger than this is refused before it is read
# (an op request's by the server, any answer by the client).
MAX_BODY = 32 * 1024 * 1024

_PLAIN = "text/plain; charset=utf-8"

Route = Callable[[], "tuple[str, str]"]      # -> (content_type, body)
# op name -> its handler (called with the params), None when unknown
Ops = Callable[[str], Optional[Callable[..., dict]]]


class EndpointError(RuntimeError):
    """A node endpoint did not answer, or did not answer 200: a refused
    or closed connection, a timeout, a malformed answer or a failed op
    (whose message the error carries)."""


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[list[str], dict[str, str]]:
    """The start line's words and the headers (names lower-cased) of
    one HTTP message."""
    start = (await reader.readline()).decode("latin-1").split()
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"", b"\r\n", b"\n"):
            return start, headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def _content_length(headers: dict[str, str]) -> Optional[int]:
    value = headers.get("content-length", "")
    return int(value) if value.isascii() and value.isdigit() else None


class TelemetryServer:
    """A deliberately tiny HTTP/1.0 endpoint (stdlib-only, in-loop).

    Routes are sync callables returning ``(content_type, body)``, served
    on ``GET``.  With ``ops``, ``POST /op/<name>`` calls the handler
    ``ops(name)`` returns with the JSON object body as keyword params
    and answers its result as JSON.  An unknown path or op gets 404, a
    malformed op request 400 (not JSON, not an object), 411 (no
    ``Content-Length``) or 413 (over :data:`MAX_BODY`, refused before it
    is read), and a route or op that raises 500 with the exception's
    text -- one bad request never stops the listener.  One request per
    connection.
    """

    def __init__(
        self,
        routes: dict[str, Route],
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        ops: Optional[Ops] = None,
    ):
        self.routes = dict(routes)
        self.ops = ops
        self._bind_host = bind_host
        self._bind_port = bind_port
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[tuple[str, int]] = None
        self.requests_served = 0

    async def start(self) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("telemetry server already started")
        self._server = await asyncio.start_server(
            self._serve, self._bind_host, self._bind_port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._answer(reader)
            raw = body.encode("utf-8")
            writer.write((
                f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(raw)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1") + raw)
            await writer.drain()
            self.requests_served += 1
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass        # a peer gone mid-request, or a header line too long
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _answer(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, str]:
        start, headers = await _read_head(reader)
        method = start[0] if start else ""
        path = (start[1] if len(start) >= 2 else "/").partition("?")[0]
        if method == "POST" and path.startswith("/op/") and self.ops:
            return await self._op(path[len("/op/"):], headers, reader)
        route = self.routes.get(path) if method == "GET" else None
        if route is None:
            return 404, _PLAIN, "not found\n"
        try:
            content_type, body = route()
        except Exception as exc:   # surface, don't kill the loop
            return 500, _PLAIN, f"error: {exc!r}\n"
        return 200, content_type, body

    async def _op(
        self, name: str, headers: dict[str, str],
        reader: asyncio.StreamReader,
    ) -> tuple[int, str, str]:
        length = _content_length(headers)
        if length is None:
            return 411, _PLAIN, "an op request needs a Content-Length\n"
        if length > MAX_BODY:
            return 413, _PLAIN, f"op body of {length} bytes refused\n"
        try:
            params = json.loads(await reader.readexactly(length))
        except ValueError:
            return 400, _PLAIN, "op body is not JSON\n"
        if not isinstance(params, dict):
            return 400, _PLAIN, "op body is not a JSON object\n"
        handler = self.ops(name)
        if handler is None:
            return 404, _PLAIN, f"unknown op {name!r}\n"
        try:
            return 200, "application/json", json.dumps(handler(**params))
        except Exception as exc:   # surface, don't kill the loop
            return 500, _PLAIN, f"{name}: {exc!r}\n"


async def http_json(
    host: str, port: int, path: str, body: Optional[dict] = None,
    timeout: float = 2.0,
) -> Any:
    """In-loop ``GET path`` -- or, with ``body``, ``POST`` it as JSON --
    returning the parsed JSON answer.  Every failure raises
    :class:`EndpointError`, an answer over :data:`MAX_BODY` included."""

    async def _fetch() -> Any:
        if body is None:
            request, payload = f"GET {path} HTTP/1.0\r\n", b""
        else:
            payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
            request = (f"POST {path} HTTP/1.0\r\n"
                       "Content-Type: application/json\r\n"
                       f"Content-Length: {len(payload)}\r\n")
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                f"{request}Host: {host}\r\n\r\n".encode("latin-1") + payload
            )
            await writer.drain()
            start, headers = await _read_head(reader)
            length = _content_length(headers)
            if length is None or length > MAX_BODY:
                raise EndpointError(
                    f"{path}: answer length {headers.get('content-length')!r} "
                    f"refused"
                )
            raw = await reader.readexactly(length)
        finally:
            writer.close()
        if len(start) < 2 or start[1] != "200":
            reason = raw.decode("utf-8", "replace").strip()
            raise EndpointError(f"{path}: {' '.join(start[1:])}: {reason}")
        return json.loads(raw)

    try:
        return await asyncio.wait_for(_fetch(), timeout)
    except (OSError, asyncio.TimeoutError, EOFError, ValueError) as exc:
        raise EndpointError(f"{host}:{port}{path}: {exc!r}") from exc


def aggregate_dumps(dumps: dict[str, dict]) -> dict:
    """Merge per-node ``repro-metrics/1`` dumps into one cluster dump.

    Actor names are prefixed ``<node>/`` so the same actor name on two
    nodes (e.g. each node's transport) stays distinguishable; the
    result is itself a valid ``repro-metrics/1`` dump.
    """
    merged: dict[str, Any] = {
        "format": "repro-metrics/1",
        "counters": [], "gauges": [], "histograms": [],
    }
    for node in sorted(dumps):
        dump = dumps[node]
        for kind in ("counters", "gauges", "histograms"):
            for entry in dump.get(kind, ()):
                entry = dict(entry)
                entry["actor"] = f"{node}/{entry['actor']}"
                merged[kind].append(entry)
    for kind in ("counters", "gauges", "histograms"):
        merged[kind].sort(key=lambda e: (e["actor"], e["name"]))
    return merged


# -- per-node assembly -------------------------------------------------

class NodeTelemetry:
    """One node's tracer, registry, flight recorder and HTTP endpoint.

    Construct *before* the node's kernel; pass :attr:`tracer` /
    :attr:`registry` into ``AsyncioKernel(tracer=..., metrics=...)`` so
    the node's actors adopt them.  ``health`` is a callable the
    supervisor provides returning the node's health snapshot dict.
    """

    def __init__(
        self,
        node: str,
        trace_path: Optional[str] = None,
        categories: Optional[frozenset] = None,
        profile_interval: float = 0.02,
    ):
        self.node = node
        self.trace_path = trace_path
        self.recorder = FlightRecorder()
        sinks: list[Any] = [self.recorder]
        self._jsonl: Optional[JsonlSink] = None
        if trace_path is not None:
            self._jsonl = JsonlSink(trace_path)
            sinks.append(self._jsonl)
        self.tracer = Tracer(
            sinks=sinks,
            categories=categories if categories is not None else DEFAULT_CATEGORIES,
            node=node,
            clock="wall",
        )
        self.registry = MetricsRegistry()
        self.server: Optional[TelemetryServer] = None
        self._health: Callable[[], dict] = lambda: {"node": node}
        # Continuous profiling: toggled via /profile/start|stop or run
        # for the whole deployment by `repro live --profile-dir` (the
        # supervisor sets profile_path; stop() writes the stacks there).
        self.profiler = StackSampler(interval=profile_interval)
        self.profile_path: Optional[str] = None
        # Self-observing watchdog (docs/OBSERVABILITY.md, "Online
        # audit"): evaluated only when /health or /alerts is scraped,
        # so it costs the datapath nothing between scrapes.  Raise /
        # clear transitions go through the tracer into the JSONL trace
        # and the flight-recorder ring (causal context on any dump).
        self.watchdog = Watchdog(
            default_node_detectors(), tracer=self.tracer
        )

    def bind(self, kernel: Any, health: Callable[[], dict]) -> None:
        """Adopt the health snapshot hook and write the trace's
        ``meta.node`` header, stamped on the node's kernel clock."""
        self._health = health
        self.tracer.emit(
            "meta.node", kernel._now, cat="meta",
            clock=self.tracer.clock,
        )

    def flush_trace(self) -> int:
        """Flush the JSONL trace to disk (for live tails: the online
        certifier drains the traces before this process exits);
        returns how many events the trace file holds."""
        if self._jsonl is None:
            return 0
        self._jsonl.flush()
        return self._jsonl.written

    # -- endpoint -----------------------------------------------------

    def _route_metrics(self) -> tuple[str, str]:
        return (
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(self.registry.dump(), node=self.node),
        )

    def _route_metrics_json(self) -> tuple[str, str]:
        return ("application/json", json.dumps(self.registry.dump()))

    def _observe_health(self, snapshot: dict) -> None:
        self.watchdog.observe(sample_from_health({self.node: snapshot}))

    def _route_health(self) -> tuple[str, str]:
        snapshot = self._health()
        self._observe_health(snapshot)
        snapshot["health_score"] = self.watchdog.health_score()
        snapshot["alerts"] = self.watchdog.active_alerts()
        return ("application/json", json.dumps(snapshot))

    def _route_alerts(self) -> tuple[str, str]:
        self._observe_health(self._health())
        return ("application/json", json.dumps({
            "node": self.node,
            "health_score": self.watchdog.health_score(),
            "active": self.watchdog.active_alerts(),
            "raised_total": self.watchdog.raised_total,
        }))

    def _route_profile(self) -> tuple[str, str]:
        return ("text/plain; charset=utf-8", self.profiler.collapsed())

    def _profile_status(self) -> tuple[str, str]:
        return (
            "application/json",
            json.dumps({
                "node": self.node,
                "running": self.profiler.running,
                "samples": self.profiler.total,
                "interval": self.profiler.interval,
            }),
        )

    def _route_profile_start(self) -> tuple[str, str]:
        self.profiler.start()
        return self._profile_status()

    def _route_profile_stop(self) -> tuple[str, str]:
        self.profiler.stop()
        return self._profile_status()

    async def start_server(
        self, host: str = "127.0.0.1", port: int = 0,
        ops: Optional[Ops] = None,
    ) -> tuple[str, int]:
        """Listen at ``host``:``port``; with ``ops``, serve the op table
        at ``POST /op/<name>`` too (a deploy worker's one endpoint)."""
        self.server = TelemetryServer(
            {
                "/metrics": self._route_metrics,
                "/metrics.json": self._route_metrics_json,
                "/health": self._route_health,
                "/alerts": self._route_alerts,
                "/profile": self._route_profile,
                "/profile/start": self._route_profile_start,
                "/profile/stop": self._route_profile_stop,
            },
            bind_host=host, bind_port=port, ops=ops,
        )
        return await self.server.start()

    async def stop(self) -> None:
        if self.server is not None:
            await self.server.stop()
            self.server = None
        if self.profiler.running:
            self.profiler.stop()
        if self.profile_path is not None:
            self.profiler.write_collapsed(self.profile_path)
        self.tracer.close()

    def dump_flight(self, path: str, header: Optional[dict] = None) -> int:
        """Dump this node's causal ring buffer to ``path`` (JSONL)."""
        return self.recorder.dump(path, header=header)
