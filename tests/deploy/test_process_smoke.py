"""Deployment smoke: the cluster as real OS processes.

Each test here spawns actual ``python -m repro worker`` children and
drives them over the control RPC -- the full tentpole path.  Wall
clocks on shared CI machines stall arbitrarily, so runs are short,
drain timeouts generous, and each scenario retries once before
failing (the same policy as the single-process live smoke).
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.deploy.chaos import SCENARIOS, run_deploy
from repro.deploy.supervisor import DeployConfig, DeploySupervisor
from repro.deploy.topology import build_topology
from tests.runtime.test_driver import VERDICT_FIELDS


def _run(scenario: str, run_dir: str, **build_kwargs):
    defaults = dict(
        nodes=3, streams=2, replicas=3, duration=1.5, rate=80.0, burst=1
    )
    defaults.update(build_kwargs)
    spec = SCENARIOS[scenario].build_spec(**defaults)
    config = DeployConfig(spec=spec, run_dir=run_dir, scenario=scenario)
    return run_deploy(config)


def _attempt(scenario: str, tmp_path, **kwargs):
    report = _run(scenario, str(tmp_path / "run1"), **kwargs)
    if not report.ok:
        report = _run(scenario, str(tmp_path / "run2"), **kwargs)
    return report


def test_three_process_baseline_agrees(tmp_path):
    report = _attempt("baseline", tmp_path)
    assert report.ok, report.summary()
    manifest = report.manifest
    # Really multi-process: three distinct worker PIDs, none of them us.
    pids = [pid for entry in manifest["nodes"].values()
            for pid in entry["pids"]]
    assert len(pids) == 3
    assert len(set(pids)) == 3
    assert os.getpid() not in pids
    # The verdict fields are the run driver's, the same ones the same
    # scenario returns through the in-loop reach
    # (tests/runtime/test_driver.py).
    assert VERDICT_FIELDS <= set(manifest)
    assert manifest["agreement"]["ok"] is True
    assert manifest["subscribes"] == {
        "requested": ["s2"], "committed": ["s2"],
    }
    assert manifest["violations"] == {}
    assert manifest["kernel_failures"] == {}
    # A clean run leaves no flight-recorder dumps.
    assert manifest["flight_dumps"] == []
    # The online certifier ran alongside the cluster, certified the run
    # safe, and -- the false-positive gate -- raised zero alerts on a
    # healthy baseline.  Its alert log landed in the run directory.
    audit = manifest["audit"]
    assert audit["ok"] is True
    assert audit["violations"] == []
    assert audit["worker_violations"] == []
    assert audit["alerts"] == []
    assert audit["events"] > 0
    assert os.path.exists(os.path.join(report.run_dir, "alerts.jsonl"))
    assert manifest["workload"]["submitted"] > 0
    # Every node wrote its trace; the spec landed next to them.
    for entry in manifest["nodes"].values():
        assert entry["trace_files"]
        for trace in entry["trace_files"]:
            assert os.path.exists(trace)
    assert os.path.exists(os.path.join(report.run_dir, "topology.json"))
    # A worker is the same node `repro live` runs: it exports the
    # client's latency and its own event-loop lag, aggregated under
    # node-prefixed actors.
    with open(os.path.join(report.run_dir, "metrics.json")) as fh:
        histograms = {
            (entry["actor"], entry["name"]): entry["n"]
            for entry in json.load(fh)["histograms"]
        }
    assert histograms["n1/client", "latency_ms"] > 0
    for node in manifest["nodes"]:
        assert histograms[f"{node}/{node}", "loop_lag_ms"] > 0
    # The manifest embeds the exact spec the workers hydrated from.
    assert manifest["format"] == "repro-deploy-manifest/1"
    assert manifest["spec"]["format"] == "repro-deploy-spec/1"
    with open(os.path.join(report.run_dir, "topology.json")) as fh:
        assert json.load(fh) == manifest["spec"]


async def _checked_vs_delivered(config: DeployConfig) -> dict:
    """A baseline run, then per worker ``(invariant_checks,
    records_checked, deliveries at its replicas)`` once the traffic has
    drained and the workers' 0.25 s checkers have had two more turns."""
    sup = DeploySupervisor(config)
    try:
        await sup.start_workers()
        await sup.driver.wire()
        await SCENARIOS["baseline"].drive(sup)
        drained, detail = await sup.driver.drain()
        assert drained, detail
        await asyncio.sleep(0.6)
        tallies = {}
        for name, handle in sup.workers.items():
            status = await handle.call("status")
            assert status["violations"] == []
            tallies[name] = (
                status["invariant_checks"], status["records_checked"],
                sum(r["delivered"] for r in status["replicas"].values()),
            )
        return tallies
    finally:
        await sup.stop_all()


def test_worker_checker_folds_each_delivery_exactly_once(tmp_path):
    # The in-worker invariant loop is incremental: however many times
    # it ran, every delivery went through the spec once -- a check costs
    # what was delivered since the last one, not the run so far.
    spec = SCENARIOS["baseline"].build_spec(
        nodes=3, streams=2, replicas=3, duration=1.5, rate=80.0, burst=1
    )
    config = DeployConfig(spec=spec, run_dir=str(tmp_path / "run"),
                          scenario="baseline")
    tallies = asyncio.run(_checked_vs_delivered(config))
    assert len(tallies) == 3
    for name, (checks, checked, delivered) in tallies.items():
        assert checks > 1 and delivered > 0, (name, checks, delivered)
        assert checked == delivered, (name, checks, checked, delivered)


def test_kill9_restart_reconverges(tmp_path):
    report = _attempt("kill9", tmp_path)
    assert report.ok, report.summary()
    manifest = report.manifest
    chaos = manifest["chaos"]
    victim = chaos["victim"]
    # The victim really died and really came back as a new process.
    assert manifest["nodes"][victim]["restarts"] == 1
    assert len(manifest["nodes"][victim]["pids"]) == 2
    assert chaos["killed_pid"] != chaos["restarted_pid"]
    # Two incarnations, two trace files (distinct clock domains).
    assert len(manifest["nodes"][victim]["trace_files"]) == 2
    # Agreement includes the restarted replica's replayed sequence, and
    # nothing tripped an invariant -- so no flight dumps either.
    assert manifest["agreement"]["ok"] is True
    assert manifest["violations"] == {}
    assert manifest["kernel_failures"] == {}
    assert manifest["subscribes"]["committed"] == ["s2"]
    assert manifest["flight_dumps"] == []
    # Live certification survived the chaos: a kill -9 plus restart may
    # raise alerts (staleness, unreachable telemetry) but must never
    # trip a safety property.
    audit = manifest["audit"]
    assert audit["ok"] is True
    assert audit["violations"] == []
    assert audit["worker_violations"] == []


def test_scenario_registry_is_complete():
    assert set(SCENARIOS) == {
        "baseline", "kill9", "partition", "clock-skew", "rolling-replace"
    }
    for scenario in SCENARIOS.values():
        assert scenario.description
        spec = scenario.build_spec(
            nodes=3, streams=2, replicas=3,
            duration=1.0, rate=50.0, burst=1,
        )
        assert spec.all_replicas()      # every scenario yields a valid spec
