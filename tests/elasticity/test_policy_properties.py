"""Property tests for the policy layer (hypothesis).

The engine's arbitration promises -- dry-run never acts, cooldowns
space same-kind actions, hysteresis demands a full sustain streak --
and the rules' monotonicity (more load never un-breaches a threshold)
are stated here as properties over arbitrary signal histories, not as
single examples.
"""

from hypothesis import given, settings, strategies as st

from repro.elasticity.policy import (
    DecideRateCeiling,
    PolicyEngine,
    SlowStreamSlo,
    StreamSkew,
)
from repro.elasticity.signals import SignalSnapshot


def snapshot(at, rate=0.0, streams=("S1",)):
    return SignalSnapshot(
        at=at,
        streams=tuple(streams),
        provisioned=tuple(streams),
        pending_subscription=False,
        decide_rate={s: rate for s in streams},
    )


# -- engine arbitration -------------------------------------------------

rates = st.floats(
    min_value=0.0, max_value=10_000.0,
    allow_nan=False, allow_infinity=False,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(rates, min_size=1, max_size=40))
def test_dry_run_never_releases(rate_history):
    engine = PolicyEngine(
        rules=(DecideRateCeiling(ceiling=100.0),),
        sustain=1, cooldown=0.0, dry_run=True,
    )
    for i, rate in enumerate(rate_history):
        released = engine.observe(snapshot(at=float(i), rate=rate))
        assert released == []
    assert not any(r.status == "enforce" for r in engine.timeline)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(rates, min_size=2, max_size=60),
    st.floats(min_value=0.1, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.05, max_value=1.0,
              allow_nan=False, allow_infinity=False),
)
def test_enforcements_of_one_kind_respect_cooldown(history, cooldown, step):
    engine = PolicyEngine(
        rules=(DecideRateCeiling(ceiling=50.0),),
        sustain=1, cooldown=cooldown,
    )
    for i, rate in enumerate(history):
        engine.observe(snapshot(at=i * step, rate=rate))
    fired = [r.at for r in engine.timeline if r.status == "enforce"]
    for earlier, later in zip(fired, fired[1:]):
        assert later - earlier >= cooldown


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.booleans(), min_size=1, max_size=60),
)
def test_no_enforce_before_sustain_consecutive_breaches(sustain, breaches):
    """An action requires `sustain` consecutive breaching observations;
    any healthy observation resets the streak."""
    engine = PolicyEngine(
        rules=(DecideRateCeiling(ceiling=100.0),),
        sustain=sustain, cooldown=0.0,
    )
    streak = 0
    for i, breach in enumerate(breaches):
        rate = 500.0 if breach else 0.0
        released = engine.observe(snapshot(at=float(i), rate=rate))
        streak = streak + 1 if breach else 0
        if released:
            assert streak >= sustain
            streak = 0   # firing resets the engine's streak too
        elif breach:
            assert streak < sustain or not released


@settings(max_examples=100, deadline=None)
@given(st.lists(rates, min_size=1, max_size=40))
def test_pending_subscription_blocks_everything(rate_history):
    engine = PolicyEngine(
        rules=(DecideRateCeiling(ceiling=10.0),), sustain=1, cooldown=0.0
    )
    for i, rate in enumerate(rate_history):
        snap = SignalSnapshot(
            at=float(i), streams=("S1",), provisioned=("S1",),
            pending_subscription=True, decide_rate={"S1": rate},
        )
        assert engine.observe(snap) == []
    assert not any(r.status == "enforce" for r in engine.timeline)


# -- rule monotonicity --------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(rates, rates)
def test_decide_rate_ceiling_is_monotone(x, y):
    lo, hi = sorted((x, y))
    rule = DecideRateCeiling(ceiling=100.0)
    if rule.evaluate(snapshot(0.0, rate=lo)) is not None:
        assert rule.evaluate(snapshot(0.0, rate=hi)) is not None


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=1.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
)
def test_stream_skew_is_monotone_in_the_hot_rate(x, y, cold):
    """Raising the hot stream's rate (cold fixed) never un-breaches."""
    lo, hi = sorted((x, y))
    rule = StreamSkew(max_share=0.6, min_total_rate=10.0)

    def snap(hot_rate):
        return SignalSnapshot(
            at=0.0, streams=("S1", "S2"), provisioned=("S1", "S2"),
            pending_subscription=False,
            decide_rate={"S1": hot_rate, "S2": cold},
        )

    before = rule.evaluate(snap(lo))
    if before is not None and before.stream == "S1":
        after = rule.evaluate(snap(hi))
        assert after is not None and after.stream == "S1"


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=5000.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=5000.0,
              allow_nan=False, allow_infinity=False),
)
def test_slow_stream_slo_is_monotone_in_the_slow_latency(x, y):
    lo, hi = sorted((x, y))
    rule = SlowStreamSlo(stall_ms=50.0, healthy_ms=25.0)

    def snap(slow_p99):
        return SignalSnapshot(
            at=0.0, streams=("S1", "S2"), provisioned=("S1", "S2"),
            pending_subscription=False,
            decide_rate={"S1": 10.0, "S2": 10.0},
            decide_p99_ms={"S1": slow_p99, "S2": 5.0},
        )

    before = rule.evaluate(snap(lo))
    if before is not None:
        after = rule.evaluate(snap(hi))
        assert after is not None and after.stream == "S1"


def test_slow_stream_slo_global_slowness_is_not_a_ring_problem():
    """When every stream is slow, replacing one ring fixes nothing."""
    rule = SlowStreamSlo(stall_ms=50.0, healthy_ms=25.0)
    snap = SignalSnapshot(
        at=0.0, streams=("S1", "S2"), provisioned=("S1", "S2"),
        pending_subscription=False,
        decide_p99_ms={"S1": 200.0, "S2": 150.0},
    )
    assert rule.evaluate(snap) is None
