"""The hot-shard fault scenario: Zipfian skew burst + delay spike +
a mid-storm relief subscription, scripted (the elasticity harness's
closed-loop twin lives in tests/elasticity)."""

from repro.faults.runner import run_scenario
from repro.faults.scenarios import SCENARIOS, get_scenario

_CACHE: dict = {}


def _run(seed=1):
    if seed not in _CACHE:
        _CACHE[seed] = run_scenario(get_scenario("hot-shard"), seed=seed)
    return _CACHE[seed]


def test_hot_shard_is_registered():
    assert "hot-shard" in SCENARIOS
    spec = get_scenario("hot-shard")
    assert spec.load_share is not None
    # The skew burst is hot on S1, cold on S2, and only mid-run.
    assert spec.load_share("S1", 2.0) > 1.0 > spec.load_share("S2", 2.0)
    assert spec.load_share("S1", 0.5) == spec.load_share("S1", 3.5) == 1.0


def test_hot_shard_converges_with_invariants_green():
    result = _run()
    assert result.checks_run > 0
    counts = set(result.delivered.values())
    assert len(counts) == 1 and counts.pop() > 0


def test_hot_shard_is_deterministic_per_seed():
    assert _run().digest == run_scenario(get_scenario("hot-shard")).digest
