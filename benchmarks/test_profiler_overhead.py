"""The stack sampler's cost on the compact figure-3 run.

The always-on profiling plane (``repro live --profile-dir``, each
node's ``/profile`` route) is only viable if sampling stays in the
noise, so this asserts the overhead below 5%.  Run with
``PYTHONPATH=src python -m pytest benchmarks/test_profiler_overhead.py -s``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.runtime.profiling import StackSampler

# The compact configuration the golden-digest tests pin.
COMPACT_FIG3 = VerticalConfig(
    duration=6.0, add_interval=2.0, n_streams=3,
    threads_per_stream=2, value_size=1024,
    per_stream_limit=300.0, lam=1000, delta_t=0.05, seed=1,
)


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def profiler_overhead(reps: int = 5, interval: float = 0.02) -> dict:
    """Compact fig3 wall clock with the stack sampler off vs. on.

    Off/on reps are interleaved and each side keeps its best wall
    clock, so slow drift on a shared CI box (cache state, noisy
    neighbours) cancels instead of landing on whichever side ran last.
    """
    config = COMPACT_FIG3

    off_wall = float("inf")
    on_wall = float("inf")
    on_samples = 0
    run_vertical(config)   # warm-up: imports + allocator steady state
    for _ in range(reps):
        wall, _ = _timed(lambda: run_vertical(config))
        off_wall = min(off_wall, wall)
        sampler = StackSampler(interval=interval)
        sampler.start()
        try:
            wall, _ = _timed(lambda: run_vertical(config))
        finally:
            samples = sampler.stop()
        if wall < on_wall:
            on_wall, on_samples = wall, samples
    return {
        "off_wall_s": off_wall,
        "on_wall_s": on_wall,
        "samples": on_samples,
        "interval": interval,
        "overhead": on_wall / off_wall - 1.0,
    }


def test_stack_sampler_overhead_below_5_percent():
    result = profiler_overhead()
    print(
        f"\nsampler off {result['off_wall_s']:.3f}s, on "
        f"{result['on_wall_s']:.3f}s ({result['samples']} samples at "
        f"{1000 * result['interval']:g}ms): {result['overhead']:+.1%}"
    )
    assert result["samples"] > 0
    assert result["overhead"] < 0.05, result
