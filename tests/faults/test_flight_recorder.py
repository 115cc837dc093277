"""Flight-recorder regression test: an invariant violation during a
fault-injection run must write a JSONL dump containing the violating
message's full causal history (submit -> propose -> Phase 2 -> learn ->
deliver) plus a self-describing ``meta.violation`` header.
"""

import json
import os

import pytest

from repro.faults.invariants import InvariantViolation
from repro.faults.runner import FLIGHT_DIR_ENV, ScenarioRunner
from repro.faults.scenarios import ScenarioSpec
from repro.faults.schedule import Schedule
from repro.obs.schema import validate_file


def _quiet_spec() -> ScenarioSpec:
    """A fault-free scenario: the violation is seeded by the test."""
    return ScenarioSpec(
        name="flight-regression",
        description="fault-free run used to exercise the flight recorder",
        streams=("S1",),
        groups={"G1": ("S1",)},
        duration=2.0,
        schedule=lambda _seed: Schedule(name="none", actions=()),
        load_rate=80.0,
    )


def _mentions(event: dict, msg_id: int) -> bool:
    return (
        event.get("msg_id") == msg_id
        or msg_id in (event.get("msg_ids") or ())
    )


def test_violation_dump_contains_causal_history(tmp_path, monkeypatch):
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
    runner = ScenarioRunner(_quiet_spec(), seed=1)
    env = runner.cluster.env
    sabotaged: dict[str, int] = {}

    def sabotage():
        # Replay an already-delivered value: its position is no longer
        # strictly increasing, so the next periodic check raises
        # ``duplicate-delivery`` against a *real* message whose
        # whole lifecycle sits in the flight recorder.
        log = runner.suite.logs["G1/r1"]
        assert log.runs, "no deliveries before the sabotage point"
        stream, first, values, _at = log.runs[0]
        sabotaged["msg_id"] = values[0].msg_id
        log.append(stream, first, values[:1], env.now)

    env.call_at(1.0, sabotage)
    with pytest.raises(InvariantViolation) as excinfo:
        runner.run()
    violation = excinfo.value
    msg_id = sabotaged["msg_id"]
    assert violation.msg_id == msg_id

    # The exception carries the dump path; the dump exists where
    # $REPRO_FLIGHT_DIR points and is named after (scenario, seed).
    path = violation.dump_path
    assert path == os.path.join(str(tmp_path), "flight-regression-seed1.jsonl")
    assert os.path.exists(path)
    assert validate_file(path) > 0

    with open(path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle]

    # Self-describing header.
    header = events[0]
    assert header["kind"] == "meta.violation"
    assert header["seq"] == -1
    assert header["scenario"] == "flight-regression"
    assert header["seed"] == 1
    assert header["msg_id"] == msg_id
    assert "strictly increasing" in header["message"]

    # The violating message's full causal history is in the dump.
    history_kinds = {e["kind"] for e in events[1:] if _mentions(e, msg_id)}
    assert {
        "client.submit",
        "coord.propose",
        "coord.phase2",
        "learner.learned",
        "replica.deliver",
        "invariant.violation",
    } <= history_kinds

    # The in-memory recorder agrees with the file.
    recorded = runner.recorder.causal_history(msg_id)
    assert {e["kind"] for e in recorded} == history_kinds


def test_clean_run_writes_no_dump(tmp_path, monkeypatch):
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
    runner = ScenarioRunner(_quiet_spec(), seed=1)
    runner.run()
    assert os.listdir(str(tmp_path)) == []
    # The recorder still holds the run's history, bounded by capacity.
    assert len(runner.recorder) > 0
    assert len(runner.recorder) <= runner.recorder.capacity


def test_runner_rides_on_externally_installed_tracer(tmp_path):
    from repro.obs.trace import ListSink, Tracer, installed

    sink = ListSink()
    tracer = Tracer(sinks=[sink])
    with installed(tracer):
        runner = ScenarioRunner(_quiet_spec(), seed=1)
    assert runner.tracer is tracer
    runner.run()
    # The external sink and the flight recorder both saw the run.
    assert sink.events
    assert len(runner.recorder) > 0
