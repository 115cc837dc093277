"""Property tests for the load-adaptive batching policy.

The policy drives the live datapath's batch sizing, so its shape is
pinned by properties rather than point examples: the batch target is
monotone in observed queue depth, always bounded by [floor, ceiling],
and decays back to the floor when the queue stays empty.  The sim
backend must be unaffected: adaptive batching is opt-in and the
default ``StreamConfig`` keeps the coordinator on the classic fixed
batch cap (golden digests stay byte-identical -- ``tests/baselines``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paxos.config import StreamConfig
from repro.paxos.coordinator import CoordinatorActor
from repro.paxos import batching
from repro.paxos.batching import AdaptiveBatchPolicy
from repro.paxos.messages import Propose
from repro.sim.core import Environment
from repro.sim.network import Network


def _policy():
    return AdaptiveBatchPolicy(floor=16)


@given(
    depth_a=st.integers(min_value=0, max_value=100_000),
    depth_b=st.integers(min_value=0, max_value=100_000),
)
def test_target_monotone_in_queue_depth(depth_a, depth_b):
    lo, hi = sorted((depth_a, depth_b))
    p_lo, p_hi = _policy(), _policy()
    p_lo.observe(lo, now=1.0)
    p_hi.observe(hi, now=1.0)
    assert p_lo.target_tokens() <= p_hi.target_tokens()


@given(
    depths=st.lists(
        st.integers(min_value=0, max_value=1_000_000), min_size=1, max_size=50
    ),
    dt=st.floats(min_value=0.0, max_value=10.0,
                 allow_nan=False, allow_infinity=False),
)
def test_target_and_linger_always_bounded(depths, dt):
    policy = _policy()
    now = 0.0
    for depth in depths:
        policy.observe(depth, now)
        assert policy.floor <= policy.target_tokens() <= batching._CEILING
        assert 0.0 <= policy.linger_s(depth) <= batching._MAX_LINGER_S
        now += dt


@given(
    depth_a=st.integers(min_value=0, max_value=100_000),
    depth_b=st.integers(min_value=0, max_value=100_000),
)
def test_linger_monotone_in_queue_depth(depth_a, depth_b):
    lo, hi = sorted((depth_a, depth_b))
    p_lo, p_hi = _policy(), _policy()
    p_lo.observe(lo, now=1.0)
    p_hi.observe(hi, now=1.0)
    assert p_lo.linger_s(lo) <= p_hi.linger_s(hi)


def test_a_lone_value_does_not_linger():
    # A queue of one is not pressure: its linger would be tens of
    # microseconds, below any real timer's resolution, and arm one
    # timer per value in the sparse regime for nothing.
    policy = _policy()
    policy.observe(1, now=0.0)
    assert policy.linger_s(1) == 0.0
    assert policy.target_tokens() >= policy.floor
    policy.observe(2, now=0.0)
    assert 0.0 < policy.linger_s(2) <= batching._MAX_LINGER_S


def test_a_lone_value_does_not_linger_after_a_deeper_queue():
    # The peak-hold level stays above one for a while after a skip or a
    # two-value turn; a queue of one still does not linger.
    policy = _policy()
    policy.observe(200, now=0.0)
    policy.observe(1, now=0.001)
    assert policy.level(0.001) > 1.0
    assert policy.linger_s(1) == 0.0
    assert 0.0 < policy.linger_s(2) <= batching._MAX_LINGER_S


@given(depth=st.integers(min_value=1, max_value=1_000_000))
@settings(max_examples=50)
def test_decays_to_floor_when_idle(depth):
    policy = _policy()
    policy.observe(depth, now=0.0)
    assert policy.target_tokens() >= policy.floor
    # 100 decay constants later the level has hit the hard zero clamp:
    # an idle stream is back to the classic floor and zero linger.
    policy.observe(0, now=100 * batching._DECAY_S)
    assert policy.level(100 * batching._DECAY_S) == 0.0
    assert policy.target_tokens() == policy.floor
    assert policy.linger_s(0) == 0.0


def test_peak_hold_raises_instantly_and_holds():
    policy = _policy()
    policy.observe(1000, now=0.0)
    high = policy.target_tokens()
    # A shallow sample at the same instant must not lower the target.
    policy.observe(0, now=0.0)
    assert policy.target_tokens() == high
    # Shortly after, the target has decayed but not collapsed.
    policy.observe(0, now=0.01)
    assert policy.floor < policy.target_tokens() <= high


def test_half_pressure_is_the_midpoint():
    policy = _policy()
    policy.observe(batching._HALF_PRESSURE, now=0.0)
    assert policy.target_tokens() == 16 + (batching._CEILING - 16) // 2


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AdaptiveBatchPolicy(floor=0)
    with pytest.raises(ValueError):
        AdaptiveBatchPolicy(floor=batching._CEILING + 1)


def _sim_coordinator(**config_overrides):
    env = Environment()
    net = Network(env)
    config = StreamConfig(
        name="s1", acceptors=("s1/a1",), **config_overrides
    )
    return CoordinatorActor(env, net, config)


def test_sim_default_keeps_adaptive_batching_off():
    # Determinism pin: the default StreamConfig must not grow a batch
    # policy -- the sim's golden digests depend on the classic fixed
    # batch path being byte-identical.
    config = StreamConfig(name="s1", acceptors=("s1/a1",))
    assert config.adaptive_batching is False
    assert _sim_coordinator()._batch_policy is None


def test_coordinator_grows_policy_when_enabled():
    coordinator = _sim_coordinator(adaptive_batching=True)
    assert coordinator._batch_policy is not None
    assert coordinator._batch_policy.floor == coordinator.config.batch_max_tokens


# -- admission under λ: per batch when adaptive, per value when fixed ---------


def _admitting_coordinator(adaptive: bool, values: int, credit: int):
    """A leading coordinator of λ = 1024 values/s with ``values`` values
    queued at t = 1 and ``credit`` values of credit in its bucket; every
    batch it cuts is recorded as ``(time, values)`` instead of sent."""
    from repro.paxos.types import AppValue

    coordinator = _sim_coordinator(
        adaptive_batching=adaptive, lam=1024, window=10**6,
    )
    env = coordinator.env
    batches: list = []
    coordinator._send_phase2 = lambda instance, batch: batches.append(
        (env.now, len(batch.tokens))
    )
    coordinator.leading = True
    env.run(until=1.0)
    coordinator._value_gate_open = 1.0 - credit / 1024
    coordinator._enqueue(
        [AppValue(payload=index, size=8) for index in range(values)]
    )
    coordinator._pump_proposals()
    return coordinator, batches


def test_a_coordinator_with_one_value_queued_sends_it_at_once():
    # The live coordinator's side of the rule: a skip run deep enough to
    # raise the level, then one value -- it leaves without a linger timer.
    from repro.paxos.types import AppValue, SkipToken

    coordinator = _sim_coordinator(adaptive_batching=True, window=10**6)
    env = coordinator.env
    batches: list = []
    coordinator._send_phase2 = lambda instance, batch: batches.append(
        (env.now, batch.tokens)
    )
    coordinator.leading = True
    env.run(until=1.0)
    coordinator._enqueue([SkipToken(1)] * 64)
    coordinator._pump_proposals()
    assert coordinator._batch_policy.level(env.now) > 1.0
    value = AppValue(payload="lone", size=8)
    coordinator.on_propose(Propose(stream="s1", token=value), "client")
    assert batches[-1] == (1.0, (value,))
    assert coordinator._linger_wakeup_at is None


def test_adaptive_queue_beyond_the_credit_leaves_as_one_instance():
    # 100 values queued, credit for 10: the policy's batch leaves whole
    # (once its linger ends) and charges 100 / λ to the bucket at once.
    coordinator, batches = _admitting_coordinator(True, 100, credit=10)
    coordinator.env.run(until=1.01)
    assert [size for _at, size in batches] == [100]
    assert coordinator._value_gate_open == pytest.approx(1.0 + 90 / 1024)
    assert not coordinator.pending


def test_fixed_trigger_still_cuts_value_by_value_at_the_credit():
    # The sim's trigger: the first instance takes the 10 values of
    # credit (and the one the gate at exactly now admits), the rest
    # leave as the bucket refills -- the per-value cut the golden
    # digests are pinned against.
    coordinator, batches = _admitting_coordinator(False, 100, credit=10)
    assert [size for _at, size in batches] == [11]
    coordinator.env.run(until=1.2)
    assert sum(size for _at, size in batches) == 100
    assert len(batches) > 20
    assert max(size for _at, size in batches[1:]) <= 2


def test_adaptive_admission_keeps_the_long_run_rate_under_lambda():
    # A queue that never runs dry, for 4 s: batches of about the
    # target, the gate shut values / λ after each, so what leaves by T
    # is at most λ·T + two batch targets (one of credit, one in flight).
    coordinator, batches = _admitting_coordinator(True, 8000, credit=0)
    env = coordinator.env
    window = 4.0
    env.run(until=1.0 + window)
    target = coordinator._batch_policy.target_tokens()
    admitted = sum(size for _at, size in batches)
    assert admitted <= 1024 * window + 2 * target
    assert admitted >= 1024 * window - target
    assert min(size for _at, size in batches) >= target - 1
    # Between two batches the gate holds for the values the first took.
    for (at, size), (next_at, _size) in zip(batches, batches[1:]):
        assert next_at - at == pytest.approx(size / 1024, abs=1e-9)
