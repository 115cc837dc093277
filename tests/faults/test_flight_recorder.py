"""Flight-recorder regression test: an invariant violation during a
fault-injection run must write a JSONL dump containing the violating
message's full causal history (submit -> propose -> Phase 2 -> decide ->
learn -> deliver) plus a self-describing ``meta.violation`` header.  The
run itself traces nothing: the dump is a replay's ring.
"""

import json
import os

import pytest

from repro.elasticity.scenarios import ElasticityRunner, get_scenario
from repro.faults.invariants import InvariantViolation
from repro.faults.runner import FLIGHT_DIR_ENV, ScenarioRunner
from repro.faults.scenarios import ScenarioSpec, sim_topology
from repro.faults.schedule import Schedule
from repro.obs.schema import validate_file
from repro.obs.trace import Tracer, installed
from repro.paxos.types import AppValue, next_value_id, rewind_value_ids


def _quiet_spec() -> ScenarioSpec:
    """A fault-free scenario: the violation is seeded by the test."""
    return ScenarioSpec(
        name="flight-regression",
        description="fault-free run used to exercise the flight recorder",
        topology=sim_topology(("S1",), {"G1": ("S1",)}),
        duration=2.0,
        schedule=lambda _seed: Schedule(name="none", actions=()),
        load_rate=80.0,
    )


def _mentions(event: dict, msg_id: int) -> bool:
    return (
        event.get("msg_id") == msg_id
        or msg_id in (event.get("msg_ids") or ())
    )


class _Sabotage:
    """A run that re-delivers an already-delivered value at t = 1: its
    position is no longer strictly increasing, so the next periodic
    check raises ``duplicate-delivery`` against a *real* message whose
    whole lifecycle a replay's ring holds.  Part of the run, so a
    replay does it too."""

    sabotaged: list = []

    def run(self):
        self.cluster.env.call_at(1.0, self._sabotage)
        return super().run()

    def _sabotage(self):
        log = self.suite.logs[min(self.suite.logs)]
        assert log.delivered, "no deliveries before the sabotage point"
        stream, position, msg_id, _at = log.records[0]
        self.sabotaged.append(msg_id)
        log.append(stream, position, [AppValue(None, msg_id=msg_id)],
                   self.cluster.env.now)


class _Sabotaged(_Sabotage, ScenarioRunner):
    pass


class _SabotagedElasticity(_Sabotage, ElasticityRunner):
    pass


def test_violation_dump_contains_causal_history(tmp_path, monkeypatch):
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
    runner = _Sabotaged(_quiet_spec(), seed=1)
    assert runner.recorder is None      # the run itself traces nothing
    _Sabotaged.sabotaged = []
    with pytest.raises(InvariantViolation) as excinfo:
        runner.run()
    violation = excinfo.value
    # The replay re-delivered the same message, ids and all.
    msg_id, replayed = _Sabotaged.sabotaged
    assert replayed == msg_id
    assert violation.msg_id == msg_id
    assert "replay" not in str(violation)

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


@pytest.mark.parametrize("build", [
    lambda: _Sabotaged(_quiet_spec(), seed=1),
    lambda: _SabotagedElasticity(get_scenario("ramp"), seed=1),
], ids=["scenario", "elasticity"])
def test_a_replayed_dump_is_the_inline_ring_byte_for_byte(
    build, tmp_path, monkeypatch
):
    # The same run twice from the same id: once traced, its ring riding
    # along inline, once untraced and replayed for the dump.
    first = next_value_id()
    dumps = []
    for mode, tracer in (("inline", Tracer()), ("replayed", None)):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path / mode))
        rewind_value_ids(first)
        with installed(tracer):
            runner = build()
        assert (runner.recorder is None) == (tracer is None)
        with pytest.raises(InvariantViolation) as excinfo:
            runner.run()
        with open(excinfo.value.dump_path, "rb") as dump:
            dumps.append(dump.read())
        assert "replay" not in str(excinfo.value)
    assert dumps[0] == dumps[1]
    assert dumps[0].count(b"\n") > 100


def test_a_replay_that_fails_otherwise_is_reported_with_both_verdicts(
    tmp_path, monkeypatch
):
    # Sabotaged the first time only: the replay runs clean -- a
    # determinism finding, which the violation and the dump both carry.
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))

    class _Once(_Sabotaged):
        def _sabotage(self):
            if not self.sabotaged:
                super()._sabotage()

    _Once.sabotaged = []
    with pytest.raises(InvariantViolation) as excinfo:
        _Once(_quiet_spec(), seed=1).run()
    message = str(excinfo.value)
    assert "strictly increasing" in message
    assert message.endswith("; its replay: no failure")
    with open(excinfo.value.dump_path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    assert header["message"] == message
    assert validate_file(excinfo.value.dump_path) > 100


def test_clean_run_writes_no_dump(tmp_path, monkeypatch):
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
    runner = ScenarioRunner(_quiet_spec(), seed=1)
    runner.run()
    assert os.listdir(str(tmp_path)) == []
    # Nothing was traced: a ring is regenerated only for a failure.
    assert runner.tracer is None and runner.recorder is None
    assert runner.cluster.env.tracer is None


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
