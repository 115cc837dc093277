"""Property-based tests for core data structures."""

from hypothesis import given, settings, strategies as st

from repro.kvstore.partitioning import partition_index_of
from repro.kvstore.store import InMemoryStore
from repro.multicast.stream import TokenLog
from repro.paxos.types import AppValue, SkipToken
from repro.quantiles import percentile
from repro.runtime.kernel import Envelope
from repro.sim.core import Environment
from repro.sim.queues import Store


@st.composite
def token_lists(draw):
    tokens = []
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.booleans()):
            tokens.append(AppValue(payload=draw(st.integers()), size=1))
        else:
            tokens.append(SkipToken(count=draw(st.integers(1, 10))))
    return tokens


@given(tokens=token_lists())
@settings(max_examples=200, deadline=None)
def test_token_log_covering_consistent(tokens):
    """token_covering agrees with a naive position-by-position expansion."""
    log = TokenLog()
    expanded = []
    for token in tokens:
        log.append(token)
        expanded.extend([token] * token.positions())
    assert log.frontier == len(expanded)
    hint = 0
    for position, expected in enumerate(expanded):
        token, hint = log.token_covering(position, hint)
        assert token is expected
    beyond, _ = log.token_covering(len(expanded))
    assert beyond is None


@given(tokens=token_lists(), positions=st.lists(st.integers(0, 300), max_size=20))
@settings(max_examples=100, deadline=None)
def test_token_log_random_access_with_any_hint(tokens, positions):
    log = TokenLog()
    expanded = []
    for token in tokens:
        log.append(token)
        expanded.extend([token] * token.positions())
    for raw in positions:
        position = raw % (len(expanded) + 5)
        for hint in (0, len(tokens) // 2, len(tokens)):
            token, _ = log.token_covering(position, hint)
            if position < len(expanded):
                assert token is expanded[position]
            else:
                assert token is None


@given(
    keys=st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=50),
    n_partitions=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_partitioning_total_and_deterministic(keys, n_partitions):
    for key in keys:
        first = partition_index_of(key, n_partitions)
        assert 0 <= first < n_partitions
        assert partition_index_of(key, n_partitions) == first


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.text(min_size=1, max_size=6),
        ),
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_store_matches_dict_model(operations):
    store = InMemoryStore()
    model: dict = {}
    for op, key in operations:
        if op == "put":
            store.put(key, key.upper())
            model[key] = key.upper()
        else:
            assert store.delete(key) == (key in model)
            model.pop(key, None)
    assert list(store.keys()) == sorted(model)
    high_sentinel = chr(0x10FFFF) * 10   # beyond any generated key
    assert store.get_range("", high_sentinel) == sorted(model.items())


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_sim_store_is_fifo(items):
    env = Environment()
    queue = Store(env)
    out = []
    queue.consume(lambda payload, src: out.append(payload), "inbox")
    # Half the items wait in the store, half reach the parked mailbox.
    half = len(items) // 2
    for item in items[:half]:
        queue.put_nowait(Envelope("p", "c", item, 0, 0.0, 0.0))
    env.run()
    for item in items[half:]:
        queue.put_nowait(Envelope("p", "c", item, 0, 0.0, 0.0))
    env.run()
    assert out == items


@given(
    samples=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    pct=st.floats(min_value=0.1, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_percentile_bounds(samples, pct):
    value = percentile(samples, pct)
    assert min(samples) <= value <= max(samples)
    assert percentile(samples, 100) == max(samples)
