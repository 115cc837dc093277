"""Unit tests for the fault-schedule DSL and the RandomChaos generator."""

import pytest

from repro.faults.schedule import (
    ClockStep,
    ControlOp,
    CrashAt,
    DelaySpike,
    DuplicateWindow,
    LossWindow,
    PartitionWindow,
    RandomChaos,
    RecoverAt,
    ReorderWindow,
    Schedule,
    UnsupportedAction,
    live_steps,
)
from repro.faults import schedule as schedule_module


def test_schedule_rejects_negative_point_time():
    with pytest.raises(ValueError, match="before t=0"):
        Schedule(name="bad", actions=(CrashAt(at=-0.1, target="r1"),))


def test_schedule_rejects_empty_window():
    with pytest.raises(ValueError, match="empty or negative"):
        Schedule(
            name="bad",
            actions=(LossWindow(start=0.5, end=0.5, loss=0.1),),
        )
    with pytest.raises(ValueError, match="empty or negative"):
        Schedule(
            name="bad",
            actions=(LossWindow(start=0.5, end=0.2, loss=0.1),),
        )


def test_schedule_horizon_and_events():
    schedule = Schedule(
        name="s",
        actions=(
            CrashAt(at=0.5, target="r1"),
            RecoverAt(at=0.9, target="r1"),
            PartitionWindow(start=0.2, end=1.4, side_a=("a",), side_b=("b",)),
        ),
    )
    assert len(schedule) == 3
    assert schedule.horizon == 1.4
    times = [at for at, _desc in schedule.events()]
    assert times == sorted(times)
    assert times == [0.2, 0.5, 0.9, 1.4]
    assert Schedule(name="empty").horizon == 0.0


def test_action_descriptions():
    assert CrashAt(at=1.0, target="r1").describe() == "crash r1"
    assert "50%" in DuplicateWindow(start=0, end=1, probability=0.5).describe()
    assert "a->*" in LossWindow(start=0, end=1, loss=0.1, src=("a",)).describe()
    window = ReorderWindow(start=0, end=1, probability=0.2, spread=0.004)
    assert "4.0ms" in window.describe()


def test_random_chaos_is_deterministic():
    kwargs = dict(
        horizon=4.0,
        crash_targets=("r1", "r2"),
        partition_cuts=((("r1",), ("a1",)), (("r2",), ("a2",))),
    )
    assert (
        RandomChaos(seed=5, **kwargs).generate()
        == RandomChaos(seed=5, **kwargs).generate()
    )
    assert (
        RandomChaos(seed=5, **kwargs).generate()
        != RandomChaos(seed=6, **kwargs).generate()
    )


def test_random_chaos_respects_warmup_and_quiet_tail(monkeypatch):
    monkeypatch.setattr(schedule_module, "_WARMUP", 0.5)
    chaos = RandomChaos(
        seed=9,
        horizon=10.0,
        crash_targets=("r1",),
        partition_cuts=((("r1",), ("a1",)),),
        quiet_tail=0.3,
    )
    schedule = chaos.generate()
    active_end = 10.0 * (1 - 0.3)
    assert schedule.horizon <= active_end
    for at, _desc in schedule.events():
        assert 0.5 <= at <= active_end


def test_random_chaos_crash_windows_never_overlap_per_target(monkeypatch):
    monkeypatch.setattr(schedule_module, "_N_CRASHES", 4)
    schedule = RandomChaos(
        seed=13,
        horizon=6.0,
        crash_targets=("r1",),
    ).generate()
    spans = []
    down_since = None
    for at, desc in schedule.events():
        if desc == "crash r1":
            assert down_since is None, "crashed while already down"
            down_since = at
        elif desc == "recover r1":
            assert down_since is not None
            spans.append((down_since, at))
            down_since = at  # recover precedes any further crash
            down_since = None
    for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert s2 > e1


def test_random_chaos_without_targets_has_no_crashes_or_partitions():
    schedule = RandomChaos(seed=2, horizon=3.0).generate()
    assert not any(
        isinstance(a, (CrashAt, RecoverAt, PartitionWindow))
        for a in schedule.actions
    )
    assert len(schedule) == 4   # loss + delay + duplicate + reorder


# A live cluster as the live check sees it: each node's hosts.
_HOSTS = {
    "n1": ("s1/coordinator", "s1/a1", "g1/r1", "client"),
    "n2": ("s2/coordinator", "s2/a1", "g1/r2"),
    "n3": ("g1/r3",),
}


def _live(actions=(), control=(), crash=True):
    return live_steps(Schedule("t", actions), tuple(control), _HOSTS, ("g1",),
                      "multi-process deployment" if crash
                      else "in-process cluster", crash)


def test_live_steps_run_in_time_order_control_first_at_a_tie():
    steps = _live(
        actions=(
            RecoverAt(at=1.5, target="n3"),
            CrashAt(at=1.0, target="n3"),
            PartitionWindow(start=0.2, end=0.6, side_a=_HOSTS["n3"],
                            side_b=_HOSTS["n1"] + _HOSTS["n2"]),
            ClockStep(at=0.7, target="n2", delta=0.4),
        ),
        control=(
            ControlOp(1.0, "subscribe", "g1", "s2", via="s1"),
            ControlOp(1.0, "unsubscribe", "g1", "s1", via="s2"),
        ),
    )
    assert [(at, op, target) for at, op, target, _args in steps] == [
        (0.2, "partition", "n3 | n1,n2"),
        (0.6, "partition", "n3 | n1,n2"),
        (0.7, "skew", "n2"),
        (1.0, "subscribe", "s2"),
        (1.0, "unsubscribe", "s1"),
        (1.0, "kill9", "n3"),
        (1.5, "restart", "n3"),
    ]
    cut, blocked = steps[0][3]
    assert blocked and not steps[1][3][1]
    # Each side's nodes block the other side's hosts.
    assert cut == {"n3": _HOSTS["n1"] + _HOSTS["n2"],
                   "n1": _HOSTS["n3"], "n2": _HOSTS["n3"]}


@pytest.mark.parametrize("action, why", [
    (LossWindow(start=0.1, end=0.2, loss=0.1), "message-level"),
    (DuplicateWindow(start=0.1, end=0.2, probability=0.3), "message-level"),
    (ReorderWindow(start=0.1, end=0.2, probability=0.3), "message-level"),
    (DelaySpike(start=0.1, end=0.2, extra_latency=0.01), "message-level"),
    (PartitionWindow(start=0.1, end=0.2, side_a=("g1/r1",),
                     side_b=("g1/r2",)),
     "splits a node's hosts"),
    (PartitionWindow(start=0.1, end=0.2, side_a=("g1/r3",),
                     side_b=("r9",)),
     r"no node carries \['r9'\]"),
    (CrashAt(at=0.1, target="g1/r3"), "name a node"),
    (ClockStep(at=0.1, target="g1/r3", delta=0.1), "name a node"),
])
def test_the_live_check_refuses_what_it_would_approximate(action, why):
    with pytest.raises(UnsupportedAction, match=why) as refused:
        _live(actions=(action,))
    assert refused.value.action == action
    assert refused.value.shape == "multi-process deployment"
    assert action.describe() in str(refused.value)


def test_an_in_process_cluster_refuses_crash_and_recover():
    for action in (CrashAt(at=0.1, target="n3"),
                   RecoverAt(at=0.2, target="n3")):
        with pytest.raises(UnsupportedAction,
                           match="in-process cluster cannot run it"):
            _live(actions=(action,), crash=False)
    # A clock step and a cut need no supervisor.
    assert len(_live(actions=(ClockStep(0.1, "n3", 0.2),), crash=False)) == 1


def test_the_live_check_refuses_a_prepare_and_a_foreign_group():
    with pytest.raises(UnsupportedAction, match="prepare_msg"):
        _live(control=(ControlOp(0.1, "prepare", "g1", "s2", via="s1"),))
    with pytest.raises(UnsupportedAction, match=r"its groups are \['g1'\]"):
        _live(control=(ControlOp(0.1, "subscribe", "G2", "s2", via="s1"),))
