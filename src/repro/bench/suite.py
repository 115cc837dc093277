"""The benchmarks themselves.

Each benchmark drives one hot layer of the reproduction and reports a
wall-clock rate.  Wall-clock numbers vary with the machine; everything
*simulated* inside a benchmark is deterministic, and the figure-3
benchmark also reports the sha256 digest of its result series so a
bench run doubles as a determinism check (see
``tests/baselines/test_golden_digests.py`` for the pinned values).

The suite has two sizes:

``quick``
    Seconds-scale; used by the CI perf-smoke job.  The figure-3 run
    uses the *compact* configuration whose digest is pinned by the
    golden tests.
``full``
    The real measurement: figure 3 at 20 simulated seconds, the
    configuration the ISSUE's 2x acceptance criterion is judged on.
"""

from __future__ import annotations

import copy
import hashlib
import time
from typing import Any, Callable, Optional

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PRE_PR_FIG3_WALL_S",
    "bench_fig3_latency_budget",
    "compare_to_baseline",
    "profiler_overhead",
    "run_bench",
    "summary_lines",
]

BENCH_SCHEMA_VERSION = 1

# Figure 3 at duration=20, seed=1, measured on the pre-optimisation
# tree (commit d17ac55): the reference the >=2x speedup criterion is
# judged against.  Machine-specific, recorded for provenance.
PRE_PR_FIG3_WALL_S = 5.664

# Paper numbers the end-to-end benchmark is compared against (Fig. 3:
# per-interval average throughput as streams are added, and the
# four-stream scaling factor).
PAPER_FIG3_INTERVALS = (735.0, 1498.0, 2391.0, 2660.0)
PAPER_FIG3_SCALING = 3.62


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


# -- kernel: event calendar ---------------------------------------------------

def bench_kernel_events(n: int) -> dict:
    """Drain ``n`` scheduled callbacks through the calendar."""
    from ..sim.core import Environment

    env = Environment()
    hits = [0]

    def tick():
        hits[0] += 1

    for i in range(n):
        env.call_later(i * 1e-6, tick)
    wall, _ = _timed(lambda: env.run())
    assert hits[0] == n
    return {"events": n, "wall_s": wall, "events_per_s": n / wall}


def bench_kernel_timeouts(n: int) -> dict:
    """One process yielding ``n`` timeouts: allocation + resume cost."""
    from ..sim.core import Environment

    env = Environment()

    def proc():
        for _ in range(n):
            yield env.timeout(0.001)

    env.process(proc())
    wall, _ = _timed(lambda: env.run())
    return {"events": n, "wall_s": wall, "events_per_s": n / wall}


# -- network: one hop ---------------------------------------------------------

def bench_network_msgs(n: int) -> dict:
    """``n`` unicast sends delivered into an inbox (no consumer)."""
    from ..sim.network import LinkSpec, Network
    from ..sim.core import Environment

    env = Environment()
    net = Network(env, default_link=LinkSpec(latency=0.0001))
    net.add_host("a")
    b = net.add_host("b")
    payload = object()
    for _ in range(n):
        net.send("a", "b", payload, 100)
    wall, _ = _timed(lambda: env.run())
    assert len(b.inbox) == n
    return {"messages": n, "wall_s": wall, "msgs_per_s": n / wall}


# -- merge: dynamic round-robin delivery --------------------------------------

def bench_dmerge_values(n_values: int) -> dict:
    """Pump ``n_values`` app values (interleaved with skips) through
    the elastic merger across two streams."""
    from ..multicast.elastic import ElasticMerger
    from ..multicast.stream import TokenLog
    from ..paxos.types import AppValue, SkipToken

    logs = {"S1": TokenLog(), "S2": TokenLog()}
    per_stream = n_values // 2
    for name, log in logs.items():
        for i in range(per_stream):
            log.append(AppValue(payload=i, size=64))
            log.append(SkipToken(count=4))
    delivered = [0]
    merger = ElasticMerger(
        "G1",
        deliver=lambda s, p, vs: delivered.__setitem__(0, delivered[0] + len(vs)),
        stream_provider=lambda name: logs[name],
    )
    merger.bootstrap(logs)
    wall, _ = _timed(merger.pump)
    assert delivered[0] == per_stream * 2
    return {
        "values": delivered[0],
        "wall_s": wall,
        "values_per_s": delivered[0] / wall,
    }


# -- snapshots: structural copy vs deepcopy -----------------------------------

def _checkpoint_state(keys: int, per_key: int) -> dict:
    """A representative replica checkpoint: plain containers over
    immutable leaves, the shape ``structural_copy`` is specified for."""
    from ..paxos.types import AppValue

    return {
        f"k{i}": {
            "values": [AppValue(payload=f"v{i}:{j}", size=64) for j in range(per_key)],
            "positions": tuple(range(per_key)),
            "acked": {j for j in range(0, per_key, 2)},
        }
        for i in range(keys)
    }


def bench_structural_copy(keys: int, per_key: int, reps: int) -> dict:
    """Measure the satellite win: deepcopy vs structural copy of the
    same checkpoint-shaped state."""
    from ..storage.snapshot import structural_copy

    state = _checkpoint_state(keys, per_key)

    def run_deepcopy():
        for _ in range(reps):
            copy.deepcopy(state)

    def run_structural():
        for _ in range(reps):
            structural_copy(state)

    deep_wall, _ = _timed(run_deepcopy)
    struct_wall, _ = _timed(run_structural)
    return {
        "keys": keys,
        "values_per_key": per_key,
        "reps": reps,
        "deepcopy_s": deep_wall,
        "structural_s": struct_wall,
        "speedup": deep_wall / struct_wall if struct_wall > 0 else float("inf"),
    }


# -- end to end: figure 3 -----------------------------------------------------

def _fig3_config(quick: bool):
    from ..harness.experiments.vertical import VerticalConfig

    if quick:
        # The compact configuration pinned by the golden-digest tests.
        return VerticalConfig(
            duration=6.0, add_interval=2.0, n_streams=3,
            threads_per_stream=2, value_size=1024,
            per_stream_limit=300.0, lam=1000, delta_t=0.05, seed=1,
        )
    return VerticalConfig(duration=20.0, seed=1)


def fig3_result_digest(result) -> str:
    """sha256 over the run's observable series; bit-identical across
    same-seed runs (the determinism contract the optimisations keep)."""
    blob = repr((
        result.throughput,
        sorted(result.per_stream.items()),
        result.interval_averages,
        result.latency_p95_ms,
        result.subscribe_times,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


def bench_fig3_e2e(quick: bool) -> dict:
    from ..harness.experiments.vertical import run_vertical

    config = _fig3_config(quick)
    wall, result = _timed(lambda: run_vertical(config))
    out = {
        "quick": quick,
        "sim_duration_s": config.duration,
        "seed": config.seed,
        "wall_s": wall,
        "realtime_factor": config.duration / wall,
        "interval_averages": list(result.interval_averages),
        "scaling_factor": result.scaling_factor,
        "latency_p95_ms": result.latency_p95_ms,
        "digest": fig3_result_digest(result),
    }
    if not quick:
        out["pre_pr_wall_s"] = PRE_PR_FIG3_WALL_S
        out["speedup_vs_pre_pr"] = PRE_PR_FIG3_WALL_S / wall
    return out


def bench_fig3_latency_budget(quick: bool) -> dict:
    """Re-run the figure-3 experiment under a streaming LifecycleIndex
    tracer and return its latency-budget report
    (``repro bench --latency-budget`` embeds it in the BENCH json).

    Deterministic: the sim runs in virtual time, so the budget is a
    pure function of the pinned seed -- same seed, same report.
    """
    from ..harness.experiments.vertical import run_vertical
    from ..obs.critpath import latency_budget
    from ..obs.spans import LifecycleIndex
    from ..obs.trace import Tracer, installed

    index = LifecycleIndex()
    with installed(Tracer(sinks=[index])):
        run_vertical(_fig3_config(quick))
    return latency_budget(index)


def profiler_overhead(reps: int = 5, interval: float = 0.02) -> dict:
    """Quick fig3 wall clock with the stack sampler off vs. on.

    The always-on profiling plane is only viable if sampling stays in
    the noise; CI asserts the overhead below 5%
    (``repro bench --profile-overhead``).  Off/on reps are interleaved
    and each side keeps its best wall clock, so slow drift on a shared
    CI box (cache state, noisy neighbours) cancels instead of landing
    on whichever side ran last.
    """
    from ..harness.experiments.vertical import run_vertical
    from ..runtime.profiling import StackSampler

    config = _fig3_config(True)

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


# -- the suite ----------------------------------------------------------------

def _best_of(reps: int, fn: Callable[[], dict], key: str) -> dict:
    """Run ``fn`` ``reps`` times, keep the run with the best ``key``
    (max for rates, min for wall clock).  Wall-clock noise on shared
    machines dwarfs real regressions on single runs; best-of-N is what
    the CI threshold is judged against."""
    best: Optional[dict] = None
    for _ in range(reps):
        result = fn()
        if best is None:
            best = result
        elif key == "wall_s":
            if result[key] < best[key]:
                best = result
        elif result[key] > best[key]:
            best = result
    assert best is not None
    return best


def run_bench(quick: bool = False, reps: int = 3) -> dict:
    """Run every benchmark best-of-``reps``; returns the
    JSON-serialisable report."""
    if quick:
        sizes = dict(kernel=50_000, timeouts=20_000, network=20_000,
                     dmerge=20_000, copy=(40, 20, 20))
    else:
        sizes = dict(kernel=200_000, timeouts=100_000, network=100_000,
                     dmerge=100_000, copy=(200, 50, 20))
    benchmarks = {
        "kernel_events": _best_of(
            reps, lambda: bench_kernel_events(sizes["kernel"]),
            "events_per_s"),
        "kernel_timeouts": _best_of(
            reps, lambda: bench_kernel_timeouts(sizes["timeouts"]),
            "events_per_s"),
        "network_msgs": _best_of(
            reps, lambda: bench_network_msgs(sizes["network"]),
            "msgs_per_s"),
        "dmerge_values": _best_of(
            reps, lambda: bench_dmerge_values(sizes["dmerge"]),
            "values_per_s"),
        "structural_copy": _best_of(
            reps, lambda: bench_structural_copy(*sizes["copy"]),
            "speedup"),
        "fig3_e2e": _best_of(reps, lambda: bench_fig3_e2e(quick), "wall_s"),
    }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "reps": reps,
        "benchmarks": benchmarks,
    }


# Metric compared against the baseline, per benchmark, with direction:
# ("rate", key) regresses when it drops; ("wall", key) when it grows.
_BASELINE_METRICS: dict[str, tuple[str, str]] = {
    "kernel_events": ("rate", "events_per_s"),
    "kernel_timeouts": ("rate", "events_per_s"),
    "network_msgs": ("rate", "msgs_per_s"),
    "dmerge_values": ("rate", "values_per_s"),
    "structural_copy": ("rate", "speedup"),
    "fig3_e2e": ("wall", "wall_s"),
}


def compare_to_baseline(
    report: dict, baseline: dict, threshold: float,
    metrics: Optional[dict[str, tuple[str, str]]] = None,
) -> tuple[list[str], list[str]]:
    """Compare a report to a baseline report.

    Returns ``(lines, regressions)``: human-readable comparison lines
    for every shared benchmark, and the subset flagged as regressed
    beyond ``threshold`` (a fraction, e.g. ``0.25`` = 25%).

    ``metrics`` maps benchmark name to ``(direction, key)`` and
    defaults to the sim suite's set; the live suite passes its own
    (``repro.bench.live.LIVE_BASELINE_METRICS``).
    """
    lines: list[str] = []
    regressions: list[str] = []
    base_benchmarks = baseline.get("benchmarks", {})
    if metrics is None:
        metrics = _BASELINE_METRICS
    for name, (direction, key) in metrics.items():
        current = report["benchmarks"].get(name, {}).get(key)
        base = base_benchmarks.get(name, {}).get(key)
        if current is None or base is None or base == 0:
            continue
        if direction == "rate":
            change = current / base - 1.0
            regressed = change < -threshold
        else:
            change = base / current - 1.0   # positive = faster
            regressed = current > base * (1.0 + threshold)
        marker = "REGRESSION" if regressed else "ok"
        lines.append(
            f"{name:>18}: {key}={current:,.1f} baseline={base:,.1f} "
            f"({change:+.1%}) {marker}"
        )
        if regressed:
            regressions.append(name)
    return lines, regressions


def summary_lines(report: dict) -> list[str]:
    """Human-readable summary, one line per benchmark, plus the
    paper-vs-measured line EXPERIMENTS.md cites."""
    b = report["benchmarks"]
    fig3 = b["fig3_e2e"]
    lines = [
        f"     kernel_events: {b['kernel_events']['events_per_s']:>12,.0f} events/s",
        f"   kernel_timeouts: {b['kernel_timeouts']['events_per_s']:>12,.0f} events/s",
        f"      network_msgs: {b['network_msgs']['msgs_per_s']:>12,.0f} msgs/s",
        f"     dmerge_values: {b['dmerge_values']['values_per_s']:>12,.0f} values/s",
        f"   structural_copy: {b['structural_copy']['speedup']:>12,.1f} x vs deepcopy",
        f"          fig3_e2e: {fig3['sim_duration_s']:.0f} sim-s in "
        f"{fig3['wall_s']:.3f} s wall ({fig3['realtime_factor']:.1f}x realtime)"
        + (f", {fig3['speedup_vs_pre_pr']:.2f}x vs pre-PR"
           if "speedup_vs_pre_pr" in fig3 else ""),
    ]
    measured = "/".join(f"{v:.0f}" for v in fig3["interval_averages"])
    paper = "/".join(f"{v:.0f}" for v in PAPER_FIG3_INTERVALS)
    lines.append(
        f"fig3 paper-vs-measured: paper {paper} ops/s "
        f"(scaling {PAPER_FIG3_SCALING:.2f}x) | measured {measured} ops/s "
        f"(scaling {fig3['scaling_factor']:.2f}x)"
        + (" [quick config: shapes, not paper scale]" if fig3["quick"] else "")
    )
    return lines
