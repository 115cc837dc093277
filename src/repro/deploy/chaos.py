"""Live chaos scenarios for the multi-process deployment plane.

The PR 1 fault layer ported to real processes: each scenario drives the
Fig. 3-style workload through :class:`~repro.deploy.supervisor
.DeploySupervisor` while injecting one fault family *for real* --

* ``kill9``     -- ``SIGKILL`` a worker mid-traffic, then a supervised
  restart: the replica re-bootstraps in a fresh process and replays the
  delivery sequence from position 1 (learner gap repair against the
  surviving acceptors);
* ``partition`` -- a symmetric socket-level cut between one node and
  the rest (:meth:`TcpTransport.set_partition` on both sides), healed
  mid-run;
* ``clock-skew``-- per-node kernel clock offsets from the spec plus a
  live mid-run skew step (``kernel._t0`` shift), with a final clock
  re-sync so ``meta.clock`` reflects the post-skew domains the merge
  tool must re-align;
* ``rolling-replace`` -- the paper's acceptor-replacement drill: move
  the workload from stream s1 to a newly subscribed s2, retire s1, and
  power-cycle the node hosting s1's coordinator/acceptors while
  traffic rides s2 untouched.

Acceptance everywhere is the run driver's verdict
(:func:`repro.runtime.driver.verdict`) over the surviving processes;
worker-side invariant suites watch continuously, and flight-recorder
dumps are written only when a run actually fails -- a clean drill
leaves no dumps.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Optional

from .supervisor import DeployConfig, DeployReport, DeploySupervisor
from .topology import TopologySpec, build_topology

__all__ = ["SCENARIOS", "Scenario", "run_deploy"]


def _replica_only_node(spec: TopologySpec) -> Optional[str]:
    """The canonical chaos victim: hosts replicas but no streams and
    no client, so no acceptor state dies with it."""
    for node in reversed(spec.nodes):
        if node.replicas and not node.streams and not node.client:
            return node.name
    return None


# -- scenario drivers --------------------------------------------------
# Each drives the run driver's workload script (workload on the initial
# stream, the runtime subscribes ``subscribe_after`` of the way in, wait
# for the last submission) and injects its fault around it.

async def _drive_baseline(sup: DeploySupervisor) -> dict:
    await sup.driver.run_workload()
    return {}


async def _drive_kill9(sup: DeploySupervisor) -> dict:
    driver = sup.driver
    workload = sup.spec.workload
    victim = _replica_only_node(sup.spec)
    if victim is None:
        raise RuntimeError("kill9 needs a replica-only node to murder")
    await driver.start_workload()
    await driver.subscribe_spares(workload.subscribe_after * workload.duration)
    await asyncio.sleep(0.1 * workload.duration)
    killed_pid = await sup.kill9(victim)
    await asyncio.sleep(1.0)            # traffic continues over the corpse
    await sup.restart(victim)
    await driver.wait_workload()
    return {"chaos": {
        "fault": "kill9", "victim": victim, "killed_pid": killed_pid,
        "restarted_pid": sup.workers[victim].pids[-1],
    }}


async def _drive_partition(sup: DeploySupervisor) -> dict:
    driver = sup.driver
    workload = sup.spec.workload
    victim = _replica_only_node(sup.spec)
    if victim is None:
        raise RuntimeError("partition needs a replica-only node to isolate")
    await driver.start_workload()
    await asyncio.sleep(0.2 * workload.duration)
    await sup.set_partition(victim, blocked=True)
    await asyncio.sleep(0.3 * workload.duration)
    await sup.set_partition(victim, blocked=False)
    # Subscribe only after the heal: the isolated replica first repairs
    # its gap, then rides through the merge point like everyone else.
    await driver.subscribe_spares(0.1 * workload.duration)
    await driver.wait_workload()
    return {"chaos": {"fault": "partition", "victim": victim}}


async def _drive_clock_skew(sup: DeploySupervisor) -> dict:
    driver = sup.driver
    spec = sup.spec
    workload = spec.workload
    skewed = [n.name for n in spec.nodes if n.clock_offset]
    victim = _replica_only_node(spec) or spec.nodes[-1].name
    await driver.start_workload()
    await driver.subscribe_spares(workload.subscribe_after * workload.duration)
    # A live skew *step* on top of the static spec offsets: the victim's
    # clock jumps mid-run, like NTP slamming a drifted host.
    await asyncio.sleep(0.1 * workload.duration)
    await sup.skew(victim, 0.4)
    await driver.wait_workload()
    # Re-estimate offsets so the *last* meta.clock per node reflects the
    # post-step domains (trace alignment uses the last mark).
    await driver.sync_clocks()
    return {"chaos": {
        "fault": "clock-skew", "static_offsets": {
            n.name: n.clock_offset for n in spec.nodes if n.clock_offset
        },
        "stepped": {victim: 0.4},
        "note": "skewed nodes at spec offsets; "
                f"{victim} stepped +0.4s mid-run",
        "skewed_nodes": skewed,
    }}


async def _drive_rolling_replace(sup: DeploySupervisor) -> dict:
    """Acceptor replacement: retire stream s1's whole node under
    traffic by moving the workload to s2 first (runtime subscribe,
    then unsubscribe s1 *via s2* so the merge point orders the exit)."""
    driver = sup.driver
    spec = sup.spec
    workload = spec.workload
    old = spec.initial_streams[0]
    candidates = [s for s in spec.streams if s != old]
    if not candidates:
        raise RuntimeError("rolling-replace needs a second stream")
    new = candidates[0]
    retired_node = spec.owner_of(old)
    await driver.start_workload()
    await asyncio.sleep(workload.subscribe_after * workload.duration)
    await driver.subscribe(new, via=old)
    # Rotate the client wholly onto the new stream, then retire the old
    # one through it -- after this merge point no replica needs s1.
    await driver.activate([new])
    await driver.unsubscribe(old, via=new)
    # The retired stream's node can now be power-cycled with traffic up.
    killed_pid = await sup.kill9(retired_node)
    await asyncio.sleep(0.5)
    await sup.restart(retired_node)
    await driver.wait_workload()
    return {"chaos": {
        "fault": "rolling-replace", "retired_stream": old,
        "replacement_stream": new, "recycled_node": retired_node,
        "killed_pid": killed_pid,
        "restarted_pid": sup.workers[retired_node].pids[-1],
    }}


# -- registry ----------------------------------------------------------

@dataclass
class Scenario:
    """One named chaos drill: how to shape the spec, how to drive it."""

    name: str
    description: str
    drive: Callable[[DeploySupervisor], Awaitable[dict]]
    build: Callable[..., TopologySpec] = build_topology

    def build_spec(self, **kwargs: Any) -> TopologySpec:
        return self.build(**kwargs)


def _build_clock_skew_spec(**kwargs: Any) -> TopologySpec:
    nodes = kwargs.get("nodes", 3)
    offsets = kwargs.pop("clock_offsets", None) or {
        f"n{i + 1}": 0.25 * i for i in range(1, nodes)
    }
    return build_topology(clock_offsets=offsets, **kwargs)


def _build_rolling_replace_spec(**kwargs: Any) -> TopologySpec:
    kwargs.setdefault("streams", 2)
    if kwargs["streams"] < 2:
        kwargs["streams"] = 2
    return build_topology(dedicate_stream_nodes=True, **kwargs)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "baseline",
            "workload + runtime subscribe, no faults",
            _drive_baseline,
        ),
        Scenario(
            "kill9",
            "SIGKILL a replica-only worker mid-traffic, restart it, "
            "require full re-convergence",
            _drive_kill9,
        ),
        Scenario(
            "partition",
            "isolate a replica-only node at the socket level, heal, "
            "require gap repair to re-converge",
            _drive_partition,
        ),
        Scenario(
            "clock-skew",
            "per-node kernel clock offsets plus a mid-run skew step; "
            "trace merge must re-align the domains",
            _drive_clock_skew,
            build=_build_clock_skew_spec,
        ),
        Scenario(
            "rolling-replace",
            "move traffic to a new stream, retire the old one, "
            "power-cycle its node under live load",
            _drive_rolling_replace,
            build=_build_rolling_replace_spec,
        ),
    )
}


async def _run(config: DeployConfig) -> DeployReport:
    scenario = SCENARIOS[config.scenario]
    sup = DeploySupervisor(config)
    driver = sup.driver
    try:
        await sup.start_workers()
        await driver.wire()
        # Every scenario runs under live certification: the online
        # auditor tails the traces while the chaos plays out.
        sup.start_watch()
        extra = await scenario.drive(sup)
        agreement = await driver.drain()
        outcome = await driver.collect(agreement, await sup.stop_watch())
        manifest_path = sup.write_manifest(outcome, extra)
    finally:
        await sup.stop_watch()
        await sup.stop_all()
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    pids = {
        name: entry["pids"]
        for name, entry in manifest["nodes"].items()
    }
    sup.log(f"scenario {config.scenario}: "
            f"{'OK' if outcome.ok else 'FAILED'} -- {outcome.detail}")
    if outcome.client_dropped_backpressure:
        sup.log(f"client node DROPPED {outcome.client_dropped_backpressure} "
                f"at its send queue")
    sup.log(f"worker pids: {pids}")
    sup.log(f"run directory: {config.run_dir}")
    return DeployReport(
        ok=outcome.ok,
        scenario=config.scenario,
        run_dir=config.run_dir,
        manifest_path=manifest_path,
        manifest=manifest,
        lines=sup.lines,
    )


def run_deploy(config: DeployConfig) -> DeployReport:
    """Run one deployment scenario end to end (blocking entry point)."""
    if config.scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {config.scenario!r}; "
            f"pick from {sorted(SCENARIOS)}"
        )
    return asyncio.run(_run(config))
