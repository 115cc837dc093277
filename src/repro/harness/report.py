"""Paper versus measured: text rendering and figure-shape checks.

Each reproduction benchmark prints a ``paper vs measured`` block with
the rows/series the paper reports; EXPERIMENTS.md archives the output.

The reproduction does not target absolute numbers (the substrate is a
simulator, not SWITCHengines); the shape checks quantify the properties
the paper's figures establish: scaling steps, dips and recoveries,
halvings, and flat lines through a reconfiguration.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = [
    "comparison_table",
    "dip_and_recovery",
    "flat_through",
    "is_monotonic_increasing",
    "plain_table",
    "section",
    "series_sparkline",
    "step_ratios",
]


def section(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{title}\n{bar}"


def comparison_table(rows: Iterable[tuple[str, object, object]]) -> str:
    """Render ``(metric, paper, measured)`` rows as an aligned table."""
    rendered = [("metric", "paper", "measured")]
    for metric, paper, measured in rows:
        rendered.append((str(metric), _fmt(paper), _fmt(measured)))
    widths = [max(len(r[i]) for r in rendered) for i in range(3)]
    lines = []
    for index, row in enumerate(rendered):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def plain_table(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    """Render arbitrary rows under ``header`` as an aligned table."""
    rendered = [tuple(str(cell) for cell in header)]
    for row in rows:
        rendered.append(tuple(_fmt(cell) for cell in row))
    ncols = max(len(r) for r in rendered)
    widths = [
        max(len(r[i]) if i < len(r) else 0 for r in rendered)
        for i in range(ncols)
    ]
    lines = []
    for index, row in enumerate(rendered):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


_BLOCKS = " ▁▂▃▄▅▆▇█"


def series_sparkline(
    series: Iterable[tuple[float, float]],
    width: int = 60,
    maximum: Optional[float] = None,
) -> str:
    """Render a (time, value) series as a unicode sparkline."""
    values = [v for _t, v in series]
    if not values:
        return "(no data)"
    if len(values) > width:
        # Downsample by averaging buckets.  Bucket boundaries are
        # computed once as integer edges: ``edges[i] < edges[i+1]``
        # whenever len(values) > width, every sample falls in exactly
        # one bucket, and the final edge is len(values) -- so the tail
        # of the series is never silently dropped.
        n = len(values)
        edges = [i * n // width for i in range(width + 1)]
        values = [
            sum(values[edges[i]:edges[i + 1]]) / (edges[i + 1] - edges[i])
            for i in range(width)
        ]
    top = maximum if maximum is not None else max(values)
    if top <= 0:
        return _BLOCKS[0] * len(values)
    chars = []
    for value in values:
        level = int(round(value / top * (len(_BLOCKS) - 1)))
        chars.append(_BLOCKS[max(0, min(level, len(_BLOCKS) - 1))])
    return "".join(chars)


# -- figure-shape checks -----------------------------------------------

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
