"""One percentile rule (``repro.quantiles``): nearest rank,
``ceil(pct/100 * n)``.  Three rules used to disagree on these very
samples (p50 of 1..5 was 3, 2 and 3; p50 of 1..100 was 50, 50 and 51);
every caller now quotes the leaf module's number and keeps only its own
answer for an *empty* sample set.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.obs.critpath import _dist_ms
from repro.quantiles import percentile
from repro.runtime import node as live_node
from repro.sim import monitor


def test_the_rule_on_the_samples_the_old_rules_split_on():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    hundred = list(range(1, 101))
    assert percentile(hundred, 50) == 50
    assert percentile(hundred, 99) == 99
    assert percentile(hundred, 100) == 100
    assert percentile([7.0], 1) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0      # sorts its input
    with pytest.raises(ValueError, match="out of"):
        percentile([1.0], 0)


def test_every_caller_quotes_the_same_number():
    samples = [0.001 * value for value in range(1, 101)]
    assert monitor.percentile is percentile
    assert live_node.percentile(samples, 50) == percentile(samples, 50)
    assert _dist_ms(samples)["p50"] == pytest.approx(50.0)
    assert _dist_ms(samples)["p99"] == pytest.approx(99.0)


def test_each_caller_keeps_its_own_empty_answer():
    with pytest.raises(ValueError, match="no samples"):
        monitor.percentile([], 50)
    assert live_node.percentile([], 50) is None
    assert _dist_ms([]) == {"n": 0, "mean": None, "p50": None, "p99": None}


def test_quantiles_is_a_leaf_module():
    # Importable from repro.runtime without the simulator, like
    # repro.spec: the standard library and nothing else.
    path = pathlib.Path(repro.__file__).parent / "quantiles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.dump(node)
            imported.add(node.module)
    assert imported <= {"__future__", "math", "typing"}
