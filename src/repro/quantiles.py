"""The one percentile rule: nearest rank, ``ceil(pct/100 * n)``.

A leaf module like :mod:`repro.spec` (stdlib only), so the simulator's
monitors, the live runtime and the trace tooling can all quote the same
number for the same samples without importing each other: on
``[1, 2, 3, 4, 5]`` p50 is 3, on ``1..100`` p50 is 50 and p99 is 99.
What an *empty* sample set means is the caller's to say (the sim raises,
a live report prints ``n/a``, a latency budget shows 0).
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["percentile"]


def percentile(samples: Sequence[float], pct: float) -> float:
    """Return the ``pct``-th percentile of ``samples`` (nearest-rank).

    Raises ``ValueError`` on an empty sample set: an experiment that
    measured nothing should fail loudly, not report 0 latency.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} out of (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
