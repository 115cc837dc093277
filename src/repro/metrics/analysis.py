"""Analysis helpers for comparing measured series against the paper.

The reproduction does not target absolute numbers (the substrate is a
simulator, not SWITCHengines); these helpers quantify the *shape*
properties the paper's figures establish: scaling steps, dips and
recoveries, halvings, and flat lines through a reconfiguration.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "is_monotonic_increasing",
    "dip_and_recovery",
    "flat_through",
    "step_ratios",
]


def is_monotonic_increasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True if each value is >= the previous (within ``tolerance``
    relative slack)."""
    return all(
        b >= a * (1.0 - tolerance) for a, b in zip(values, values[1:])
    )


def step_ratios(values: Sequence[float]) -> list[float]:
    """Ratio of each value to the first (the figure-3 scaling factors)."""
    if not values:
        raise ValueError("no values")
    if values[0] == 0:
        raise ValueError("first value is zero")
    return [v / values[0] for v in values]


def dip_and_recovery(
    series: Iterable[tuple[float, float]],
    event_time: float,
    window: float,
    baseline: float,
) -> tuple[float, float]:
    """Quantify a dip after ``event_time``.

    Returns ``(depth, recovery_seconds)``: depth is the minimum rate in
    the window as a fraction of ``baseline`` (0 = full stall), and
    recovery is how long after the event the series first returns to
    90% of baseline.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    in_window = [
        (t, v) for t, v in series if event_time <= t <= event_time + window
    ]
    if not in_window:
        raise ValueError("no samples in the event window")
    depth = min(v for _t, v in in_window) / baseline
    recovery = window
    dipped = False
    for t, v in in_window:
        if v < 0.9 * baseline:
            dipped = True
        elif dipped:
            recovery = t - event_time
            break
    else:
        if not dipped:
            recovery = 0.0
    return depth, recovery


def flat_through(
    series: Iterable[tuple[float, float]],
    start: float,
    end: float,
    baseline: float,
    max_drop: float = 0.15,
) -> bool:
    """True if the series never drops more than ``max_drop`` below
    ``baseline`` over [start, end] -- the Fig. 5 "no overhead" check."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    window = [v for t, v in series if start <= t <= end]
    if not window:
        raise ValueError("no samples in the window")
    return min(window) >= baseline * (1.0 - max_drop)
