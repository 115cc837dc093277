"""Pinned outcomes of the closed-loop elasticity scenarios at seed 1.

``tests/elasticity`` checks that one seed gives one history; these pin
*which* history: the full delivery digest (the report shows its first
16 hex digits) and every reconfiguration the controller executed, as
``python -m repro elasticity --scenario NAME --seed 1`` prints them.

Request ids come from the process-global value-id counter, so each is
pinned relative to an id drawn just before the run: the number the
report prints when the scenario is the first thing a process runs.
"""

from __future__ import annotations

import pytest

from repro.elasticity.scenarios import run_scenario
from repro.paxos.types import fresh_value_id

ELASTICITY_PINS = {
    "ramp": (
        "97903e58a76eb54e8cb13fbc285fcc17fef2fc1c1636f3f3a7fe56df52a6856e",
        [(2.0, "subscribe", "S2", 289)],
    ),
    "hot-shard": (
        "707588197ee6d3039206c134c6bd8c46d46db2a4dc9a4f890949b70e08801b66",
        [(1.5, "split", "S3", 227)],
    ),
    "slow-acceptor": (
        "b534455cb0e4b260ae695ad27010012cf0b3aed2598f8849f12e0d336718d830",
        [(1.5, "replace", "S3", 182)],
    ),
}


@pytest.mark.parametrize("name", sorted(ELASTICITY_PINS))
def test_elasticity_outcome_is_pinned(name):
    digest, executed = ELASTICITY_PINS[name]
    base = fresh_value_id()
    result = run_scenario(name, seed=1)
    assert result.digest == digest
    assert [
        (at, kind, stream, request_id - base)
        for at, kind, stream, request_id in result.executed
    ] == executed
