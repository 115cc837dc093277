"""Gap repair after a loss window closes every hole in one request.

A lossy link leaves a learner's buffer full of instances behind many
holes.  One repair request covers ``[next_instance, max(buffer))``: the
acceptor answers only what it decided, and the learner drops what it
already holds -- so a loss window costs a bounded number of repair
rounds, not one round per hole.
"""

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import ScenarioSpec, sim_topology
from repro.faults.schedule import LossWindow, Schedule
from repro.obs.trace import Tracer, installed
from repro.paxos.learner import _GAP_TIMEOUT
from repro.runtime.kernel import every

_WINDOW_END = 1.5
# Repair requests the learner may issue once the loss stops before its
# buffer holds no hole; a round takes at most two gap-timer ticks.
_ROUNDS = 2


def test_every_hole_of_a_loss_window_closes_within_two_repair_rounds():
    acceptors = ("S1/a1", "S1/a2", "S1/a3")
    schedule = Schedule(
        name="decision-loss",
        actions=(
            LossWindow(
                start=0.5, end=_WINDOW_END, loss=0.5,
                src=acceptors, dst=("G1/r1",),
            ),
        ),
    )
    spec = ScenarioSpec(
        name="decision-loss",
        description="half of S1's decisions to G1/r1 lost for a second",
        topology=sim_topology(("S1",), {"G1": ("S1",)}),
        duration=3.0,
        schedule=lambda _seed: schedule,
        load_rate=80.0,
    )
    with installed(Tracer()):   # the ring rides along: repairs are read off it
        runner = ScenarioRunner(spec, seed=1)
    env = runner.cluster.env
    holes_seen = []   # probe times at which G1/r1's S1 learner had holes

    def probe() -> None:
        if runner.cluster.replicas["G1/r1"].learners["S1"].buffer:
            holes_seen.append(env.now)

    every(env, 0.05, probe)
    runner.run()   # raises InvariantViolation on any breach
    assert holes_seen   # the window did leave holes
    repairs = [
        event["ts"] for event in runner.recorder.events()
        if event.get("kind") == "learner.gap_repair"
        and event.get("owner") == "G1/r1"
    ]
    assert len([at for at in repairs if at >= _WINDOW_END]) <= _ROUNDS
    assert max(holes_seen) <= _WINDOW_END + _ROUNDS * 2 * _GAP_TIMEOUT
