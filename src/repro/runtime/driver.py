"""The run driver: wire, drive, drain and judge a live cluster.

A run is driven the same way whether its nodes share this process's
event loop (``repro live``) or are OS processes of their own (``repro
deploy``).  The driver knows a cluster only as ``{node name -> handle}``
plus the :class:`~repro.deploy.topology.TopologySpec`; a *handle* is
anything with ``await handle.call(op, timeout=..., **params) -> dict``:

* the in-process cluster hands the driver each node's op table itself
  (:class:`~repro.runtime.node.NodeOps`);
* a worker process serves the same table at ``POST /op/<name>`` on its
  node endpoint, and the deploy supervisor hands the driver a handle
  holding that endpoint's address (each call one HTTP request; a
  refused or closed connection, a timeout or a failed op raises
  :class:`~repro.runtime.telemetry.EndpointError`).

The driver awaits each call before it makes the next -- :meth:`each`
is a loop and :meth:`play` runs its steps in order -- so no node is
ever asked two things at once.

The driver owns, once: wiring (address map -> clock sync -> start),
playing a schedule under the workload (:meth:`RunDriver.play`: runtime
subscribes, unsubscribes, partitions, clock steps and, through the
deploy supervisor, kill -9 and restart), ``wait_subscribed``,
drain-to-agreement, the collection of violations, kernel failures,
flight dumps and metrics, and :func:`verdict` -- the one acceptance rule
``LiveReport.ok`` and the deploy manifest's ``ok`` both are.
docs/RUNTIME.md, "Run driver", tables the ops.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from ..deploy.topology import TopologySpec
from .telemetry import (
    CLOCK_SYNC_SAMPLES, EndpointError, aggregate_dumps, estimate_offset,
)

__all__ = ["Agreement", "Outcome", "RunDriver", "agree", "verdict"]

_COMMIT_POLL = 0.02     # a commit gates the client's switch to the stream
_POLL = 0.1             # workload completion, drain


# -- the verdict -------------------------------------------------------

class Agreement(NamedTuple):
    """Whether every replica holds the identical non-empty delivery
    sequence, and a line saying so (or where they first diverge).
    Truthy exactly when they agree."""

    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def agree(sequences: dict[str, list]) -> Agreement:
    """Compare the replicas' delivery sequences."""
    if not sequences:
        return Agreement(False, "no replicas reported sequences")
    names = sorted(sequences)
    reference = sequences[names[0]]
    if not reference:
        return Agreement(False, f"replica {names[0]} delivered nothing")
    for name in names[1:]:
        other = sequences[name]
        if other != reference:
            common = min(len(other), len(reference))
            diverge = next(
                (i for i in range(common) if other[i] != reference[i]),
                common,
            )
            return Agreement(False, (
                f"{name} diverges from {names[0]} at index {diverge} "
                f"({len(other)} vs {len(reference)} values)"
            ))
    return Agreement(
        True, f"{len(names)} replicas agree on {len(reference)} deliveries"
    )


def verdict(
    agreement: Agreement,
    subscribes_requested: int,
    subscribes_committed: int,
    violations: Any,
    kernel_failures: Any,
    audit: Optional[dict] = None,
) -> tuple[bool, str]:
    """The acceptance rule of a live run, however its nodes are reached:
    replica agreement, every requested (un)subscribe took effect, no
    invariant violation, no kernel failure, and -- when an online
    certifier watched -- a clean audit.  Returns ``(ok, detail)``; the
    detail line names every reason a run failed."""
    reasons = []
    if subscribes_committed != subscribes_requested:
        reasons.append(
            f"{subscribes_committed}/{subscribes_requested} subscribes "
            f"committed"
        )
    if violations:
        reasons.append(f"invariant violations on {sorted(violations)}")
    if kernel_failures:
        reasons.append(f"kernel failures on {sorted(kernel_failures)}")
    if audit is not None and not audit["ok"]:
        reasons.append(
            f"online audit proved {len(audit['violations'])} safety "
            f"violations (see alerts.jsonl)"
        )
    return (
        agreement.ok and not reasons,
        "; ".join([agreement.detail, *reasons]),
    )


@dataclass
class Outcome:
    """What :meth:`RunDriver.collect` gathered and how it was judged."""

    ok: bool
    detail: str
    agreement: Agreement
    subscribes: dict[str, list[str]]        # requested / committed
    violations: dict[str, list[str]]        # node -> messages, if any
    kernel_failures: dict[str, list[str]]   # node -> reprs, if any
    statuses: dict[str, dict]
    latency_ms: dict[str, Optional[float]]  # the client's p50 / p99
    metrics: Optional[dict]                 # aggregated per-node dumps
    flight_dumps: list[str]
    # Messages the client's node refused at its per-name send-queue
    # bound: submissions nobody will retransmit.  Reported, not judged.
    client_dropped_backpressure: int = 0

    def to_json(self) -> dict:
        """The verdict as both shapes report it."""
        return {
            "ok": self.ok,
            "detail": self.detail,
            "agreement": {"ok": self.agreement.ok,
                          "detail": self.agreement.detail},
            "subscribes": self.subscribes,
            "violations": self.violations,
            "kernel_failures": self.kernel_failures,
            "flight_dumps": self.flight_dumps,
            **({"client_dropped_backpressure": self.client_dropped_backpressure}
               if self.client_dropped_backpressure else {}),
        }


# -- the driver --------------------------------------------------------

class RunDriver:
    """Drives the nodes in ``handles`` -- those that can be reached
    *now*: whoever owns the processes takes a dead node's handle out and
    puts its successor's in (then calls :meth:`wire` again)."""

    def __init__(
        self,
        spec: TopologySpec,
        handles: dict[str, Any],
        log: Callable[[str], None] = lambda line: None,
    ):
        self.spec = spec
        self.handles = handles
        self.log = log
        self.reference = spec.client_node()     # clock-sync anchor
        self.info: dict[str, dict] = {}         # node -> its hello, as wired
        self.clock_offsets: dict[str, float] = {}
        # Runtime subscribes (``s2``) and unsubscribes (``-s1``) asked
        # for, and those that took effect on every replica.
        self.requested: list[str] = []
        self.committed: list[str] = []

    @property
    def client(self) -> Any:
        return self.handles[self.reference]

    async def each(self, op: str, tolerate: bool = False, **params: Any) -> dict:
        """``op`` on every reachable node -> ``{node: answer}``.  With
        ``tolerate``, a node that stopped answering is left out (at
        collection and teardown a worker may already be gone)."""
        answers = {}
        for name, handle in list(self.handles.items()):
            try:
                answers[name] = await handle.call(op, **params)
            except EndpointError:
                if not tolerate:
                    raise
        return answers

    # -- wiring -------------------------------------------------------

    async def wire(self) -> None:
        """Addresses, clocks, start: the nodes become a cluster.  Safe
        to repeat -- that is how a restarted node's fresh port reaches
        its peers; nodes already started ignore the second ``start``."""
        self.info = await self.each("hello")
        addresses = {
            host: info["transport"]
            for info in self.info.values() if info["transport"]
            for host in info["hosts"]
        }
        await self.each("register", addresses=addresses)
        await self.sync_clocks()
        await self.each("start")
        self.log(f"cluster wired: {len(self.handles)} nodes, "
                 f"reference clock {self.reference}")

    async def sync_clocks(self) -> None:
        """Estimate every node's kernel-clock offset against the
        reference node (NTP-style: reference, node, reference; the
        minimum-RTT sample wins) and have each stamp it into its own
        trace as ``meta.clock``."""
        reference = self.handles.get(self.reference)
        if reference is None:
            return      # down mid-scenario: its restart syncs again
        ref_node = self.info[self.reference]["trace_node"]
        for name, handle in list(self.handles.items()):
            offset, rtt = 0.0, 0.0
            if handle is not reference:
                samples = []
                try:
                    for _ in range(CLOCK_SYNC_SAMPLES):
                        t0 = (await reference.call("clock"))["now"]
                        remote = (await handle.call("clock"))["now"]
                        t3 = (await reference.call("clock"))["now"]
                        samples.append((float(t0), float(remote), float(t3)))
                    offset, rtt = estimate_offset(samples)
                except (EndpointError, ValueError):
                    offset, rtt = 0.0, float("inf")
            self.clock_offsets[name] = offset
            await handle.call("clock_mark", ref=ref_node, offset=offset, rtt=rtt)

    async def stop(self) -> None:
        await self.each("stop", tolerate=True, timeout=5.0)

    # -- workload and reconfiguration ---------------------------------

    async def start_workload(self, rate_end: Optional[float] = None) -> None:
        await self.client.call("workload", rate_end=rate_end)

    async def wait_workload(self, timeout: Optional[float] = None) -> None:
        workload = self.spec.workload
        if timeout is None:
            timeout = workload.duration + workload.drain_timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if (await self.client.call("status"))["workload_done"]:
                return
            await asyncio.sleep(_POLL)

    async def reroute(self, add: Optional[str] = None,
                      remove: Optional[str] = None) -> None:
        """Take ``add`` into the client's rotation, ``remove`` out."""
        active = (await self.client.call("status"))["active_streams"]
        await self.client.call("activate", streams=[
            s for s in active if s != remove] + ([add] if add else []))

    async def wait_subscribed(
        self, stream: str, timeout: Optional[float] = None,
        subscribed: bool = True, group: Optional[str] = None,
    ) -> bool:
        """Every reachable replica of ``group`` (default: the first)
        lists (or no longer lists) ``stream`` and has no subscription
        pending."""
        if timeout is None:
            timeout = self.spec.workload.drain_timeout
        group = group or next(iter(self.spec.groups))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if all(
                (stream in state["subscriptions"]) == subscribed
                and not state["pending_subscription"]
                for status in (await self.each("status")).values()
                for name, state in status["replicas"].items()
                if self.spec.group_of(name) == group
            ):
                return True
            await asyncio.sleep(_COMMIT_POLL)
        return False

    async def subscribe(
        self, stream: str, timeout: Optional[float] = None,
        via: Optional[str] = None, group: Optional[str] = None,
    ) -> bool:
        """Runtime-subscribe ``group`` (default: the first) to
        ``stream``, ordered through ``via`` (default: the group's first
        initial stream); True once every replica's dMerge has switched.
        The verdict counts the request either way (an unsubscribe's as
        ``-stream``)."""
        return await self._reconfigure("subscribe", stream, via, group,
                                       timeout)

    async def _reconfigure(self, op: str, stream: str, via: Optional[str],
                           group: Optional[str],
                           timeout: Optional[float] = None) -> bool:
        request = stream if op == "subscribe" else f"-{stream}"
        self.requested.append(request)
        await self.client.call(op, stream=stream, via=via, group=group)
        done = await self.wait_subscribed(stream, timeout,
                                          op == "subscribe", group)
        if done:
            self.committed.append(request)
        return done

    async def play(
        self, schedule: Any, control: tuple = (), crash: Any = None,
        rate_end: Optional[float] = None,
    ) -> list[dict]:
        """Run the workload (ramping to ``rate_end``) and, ``at`` seconds
        into it, each schedule action and control op in time order, none
        before the last has taken effect; ``crash`` (the deploy
        supervisor) kills and restarts nodes.  Returns what ran, when,
        and what it did (docs/DEPLOY.md §3)."""
        # Imported here: a live node never loads the schedule language.
        from ..faults.schedule import live_steps

        hosts = {name: tuple(info["hosts"])
                 for name, info in self.info.items()}
        shape = "multi-process deployment" if crash else "in-process cluster"
        steps = live_steps(schedule, control, hosts, self.spec.groups, shape,
                           crash is not None)
        await self.start_workload(rate_end)
        loop = asyncio.get_running_loop()
        start = loop.time()
        timeline = []
        for at, op, target, args in steps:
            await asyncio.sleep(start + at - loop.time())
            at = round(loop.time() - start, 3)
            self.log(f"t+{at:.2f}s {op} {target}")
            timeline.append({"at": at, "op": op, "target": target,
                             **await self._step(op, target, args, crash)})
        await self.wait_workload()
        return timeline

    async def _step(self, op: str, target: str, args: tuple,
                    crash: Any) -> dict:
        if op == "subscribe":
            # The client takes a stream into its rotation once -- and
            # only if -- the subscribe committed.
            committed = await self.subscribe(target, via=args[0],
                                             group=args[1])
            if committed:
                await self.reroute(add=target)
            return {"committed": committed}
        if op == "unsubscribe":
            await self.reroute(remove=target)
            return {"committed": await self._reconfigure(op, target, *args)}
        if op in ("kill9", "restart"):
            return {"pid": await getattr(crash, op)(target)}
        if op == "partition":
            cut, blocked = args
            for node, peers in cut.items():
                await self.handles[node].call(
                    "partition", peers=list(peers), blocked=blocked
                )
            return {"blocked": blocked}
        # skew, then fresh offsets: each node's last ``meta.clock``,
        # what trace alignment reads, is post-step.
        await self.handles[target].call("skew", delta=args[0])
        await self.sync_clocks()
        return {"delta": args[0]}

    # -- agreement, collection, verdict -------------------------------

    async def sequences(self) -> dict[str, list]:
        return {
            replica: entries
            for answer in (await self.each("sequences")).values()
            for replica, entries in answer["sequences"].items()
        }

    async def drain(self, timeout: Optional[float] = None) -> Agreement:
        """Poll until every reachable replica reports the identical
        non-empty delivery sequence (retransmission heals stragglers),
        a node reports a kernel failure (the verdict has failed, and
        waiting heals nothing) or the timeout lapses."""
        if timeout is None:
            timeout = self.spec.workload.drain_timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            agreement = agree(await self.sequences())
            if agreement.ok:
                self.log(f"drained: {agreement.detail}")
                return agreement
            statuses = (await self.each("status", tolerate=True)).items()
            failed = sorted(name for name, s in statuses if s["kernel_failures"])
            if failed:
                self.log(f"drain stopped: kernel failures on {failed}")
                return agreement
            if loop.time() >= deadline:
                self.log(f"drain timed out after {timeout}s: "
                         f"{agreement.detail}")
                return agreement
            await asyncio.sleep(_POLL)

    async def dump_flights(self, label: str) -> list[str]:
        """Ask every reachable node for its causal ring -- called only
        when a run actually failed; a clean run leaves no dumps."""
        answers = await self.each("flight_dump", tolerate=True, label=label)
        return [a["path"] for a in answers.values() if a["path"] is not None]

    async def collect(
        self, agreement: Agreement, audit: Optional[dict] = None
    ) -> Outcome:
        """One last invariant check on every node, then its status and
        metrics; judged by :func:`verdict`."""
        await self.each("check", tolerate=True)
        statuses = await self.each("status", tolerate=True)
        metrics = await self.each("metrics", tolerate=True)
        violations = {
            name: status["violations"]
            for name, status in statuses.items() if status["violations"]
        }
        kernel_failures = {
            name: status["kernel_failures"]
            for name, status in statuses.items() if status["kernel_failures"]
        }
        ok, detail = verdict(
            agreement, len(self.requested), len(self.committed),
            violations, kernel_failures, audit,
        )
        dumps = {
            name: answer["dump"]
            for name, answer in metrics.items() if answer["dump"] is not None
        }
        client = metrics.get(self.reference, {})
        return Outcome(
            ok=ok,
            detail=detail,
            agreement=agreement,
            subscribes={"requested": list(self.requested),
                        "committed": list(self.committed)},
            violations=violations,
            kernel_failures=kernel_failures,
            statuses=statuses,
            latency_ms={"p50": client.get("latency_p50_ms"),
                        "p99": client.get("latency_p99_ms")},
            metrics=aggregate_dumps(dumps) if dumps else None,
            flight_dumps=[] if ok else await self.dump_flights(detail),
            client_dropped_backpressure=statuses.get(self.reference, {}).get(
                "transport", {}
            ).get("dropped_backpressure", 0),
        )
