"""Unit tests for workload generation."""

import random

import pytest

from repro.workload.generators import KeyspaceWorkload, key_name, zipf_shares


def test_key_name_fixed_width_sorted():
    assert key_name(42) == "key-00000042"
    keys = [key_name(i) for i in range(1000)]
    assert keys == sorted(keys)


def test_all_puts_workload():
    workload = KeyspaceWorkload(n_keys=10, value_size=256, put_fraction=1.0)
    rng = random.Random(1)
    for _ in range(50):
        spec = workload.next_command(rng)
        assert spec[0] == "put"
        assert spec[2] == 256


def test_mixed_workload_fractions():
    workload = KeyspaceWorkload(
        n_keys=100, put_fraction=0.5, range_fraction=0.2
    )
    rng = random.Random(2)
    kinds = [workload.next_command(rng)[0] for _ in range(5000)]
    puts = kinds.count("put") / len(kinds)
    ranges = kinds.count("range") / len(kinds)
    gets = kinds.count("get") / len(kinds)
    assert puts == pytest.approx(0.5, abs=0.05)
    assert ranges == pytest.approx(0.2, abs=0.03)
    assert gets == pytest.approx(0.3, abs=0.05)


def test_range_spans_requested_keys():
    workload = KeyspaceWorkload(
        n_keys=1000, put_fraction=0.0, range_fraction=1.0, range_span=7
    )
    rng = random.Random(3)
    _kind, start, end = workload.next_command(rng)
    assert start < end
    assert int(end[4:]) - int(start[4:]) == 7


def test_keys_stay_in_keyspace():
    workload = KeyspaceWorkload(n_keys=5, put_fraction=1.0)
    rng = random.Random(4)
    for _ in range(100):
        _k, key, _s = workload.next_command(rng)
        assert 0 <= int(key[4:]) < 5


def test_parameter_validation():
    with pytest.raises(ValueError):
        KeyspaceWorkload(n_keys=0)
    with pytest.raises(ValueError):
        KeyspaceWorkload(put_fraction=1.5)
    with pytest.raises(ValueError):
        KeyspaceWorkload(put_fraction=0.8, range_fraction=0.3)
    with pytest.raises(ValueError):
        KeyspaceWorkload(zipf_s=-1.0)


def test_zipfian_skews_towards_low_ranks():
    workload = KeyspaceWorkload(n_keys=1000, put_fraction=1.0, zipf_s=0.99)
    rng = random.Random(7)
    counts = {}
    for _ in range(5000):
        _k, key, _s = workload.next_command(rng)
        counts[key] = counts.get(key, 0) + 1
    hottest = max(counts.values())
    # Rank-0 under s≈1 over 1000 keys takes ~13% of the mass; uniform
    # would give 0.1%.
    assert hottest > 200
    assert counts.get("key-00000000", 0) == hottest


def test_zipf_zero_is_uniform():
    workload = KeyspaceWorkload(n_keys=100, put_fraction=1.0, zipf_s=0.0)
    rng = random.Random(8)
    counts = {}
    for _ in range(10_000):
        _k, key, _s = workload.next_command(rng)
        counts[key] = counts.get(key, 0) + 1
    assert max(counts.values()) < 3 * min(counts.values())


def test_zipf_shares_normalised_and_decreasing():
    shares = zipf_shares(8, 1.8)
    assert len(shares) == 8
    assert abs(sum(shares) - 1.0) < 1e-12
    assert all(a > b for a, b in zip(shares, shares[1:]))
    # s=0 is uniform; a single rank takes everything.
    assert zipf_shares(4, 0.0) == (0.25, 0.25, 0.25, 0.25)
    assert zipf_shares(1, 1.8) == (1.0,)


def test_zipf_shares_validation():
    with pytest.raises(ValueError):
        zipf_shares(0, 1.0)
    with pytest.raises(ValueError):
        zipf_shares(4, -0.1)
