"""Unit tests for the fault-schedule DSL and the RandomChaos generator."""

import pytest

from repro.faults.schedule import (
    CrashAt,
    DuplicateWindow,
    LossWindow,
    PartitionWindow,
    RandomChaos,
    RecoverAt,
    ReorderWindow,
    Schedule,
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
