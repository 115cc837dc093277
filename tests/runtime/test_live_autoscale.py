"""Live autoscale smoke test: the closed loop over real sockets.

A 2-node TCP cluster with telemetry on, a ramping client workload, no
scripted subscribe -- the only way a second stream joins the group is
the autoscaler polling the per-node HTTP telemetry endpoints, deciding
the decide-rate ceiling is breached, and issuing the runtime
subscription itself.  Asserts the subscription happened autonomously,
replicas still agree, and the decision was traced.

The same controller without a telemetry dir samples the process-wide
registry the CLI installs; with neither endpoints nor a registry the
run refuses to start rather than poll blind.

Wall-clock runs on shared CI machines can stall arbitrarily, so the
drain timeout is generous and the test retries once before failing.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import installed
from repro.runtime.supervisor import LiveConfig, run_live


def _attempt(telemetry_dir=None, nodes=2):
    config = LiveConfig(
        streams=2,
        replicas=2,
        nodes=nodes,
        duration=4.0,
        rate=60.0,
        rate_ramp=400.0,
        autoscale=True,
        autoscale_ceiling=120.0,
        telemetry_dir=None if telemetry_dir is None else str(telemetry_dir),
        drain_timeout=20.0,
    )
    return run_live(config)


def test_live_autoscaler_subscribes_a_spare_stream(tmp_path):
    report = _attempt(tmp_path / "a")
    if not (report.ok and report.subscribes_completed >= 1):
        report = _attempt(tmp_path / "b")    # retry once: noisy CI clocks
        telemetry = tmp_path / "b"
    else:
        telemetry = tmp_path / "a"
    assert report.ok, report.summary()
    assert report.autoscale
    # The reconfiguration was the controller's, not a script's.
    assert report.subscribes_requested >= 1, report.summary()
    assert report.subscribes_completed == report.subscribes_requested
    assert report.autoscale_events, report.summary()
    assert any("subscribe s2" in event for event in report.autoscale_events)
    assert report.sequences_identical, report.summary()
    assert min(report.delivered_per_replica.values()) > 0
    assert report.violations == [], report.summary()
    # The signal plane was actually scraped over HTTP.
    assert report.scrapes > 0
    # And the decision chain landed in the node trace: poll ->
    # decision -> action, same kinds the sim harness validates.
    kinds = set()
    for name in os.listdir(telemetry):
        if not name.endswith(".trace.jsonl"):
            continue
        with open(telemetry / name, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    kinds.add(json.loads(line)["kind"])
    assert "elastic.poll" in kinds
    assert "elastic.decision" in kinds
    assert "elastic.action" in kinds


def _registry_attempt():
    # `repro live --autoscale` without --telemetry-dir: the CLI installs
    # a process-wide registry and the controller samples that.
    with installed(metrics=MetricsRegistry()):
        return _attempt(nodes=1)


def test_live_autoscaler_without_telemetry_reads_the_installed_registry():
    report = _registry_attempt()
    if not (report.ok and report.subscribes_completed >= 1):
        report = _registry_attempt()         # retry once: noisy CI clocks
    assert report.ok, report.summary()
    assert report.autoscale and report.scrapes == 0
    assert report.subscribes_requested >= 1, report.summary()
    assert report.subscribes_completed == report.subscribes_requested
    assert any("subscribe s2" in event for event in report.autoscale_events)
    assert all(
        event.startswith("t+") and "s subscribe s" in event
        for event in report.autoscale_events
    )


def test_live_autoscaler_refuses_to_run_blind():
    # Neither endpoints nor a registry: the loop would poll forever and
    # never scale, so the run must not start at all.
    with pytest.raises(ValueError, match="no signal"):
        _attempt(nodes=1)
