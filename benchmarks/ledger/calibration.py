"""Machine speed, sampled on the measuring thread while it measures.

The 2-core reference box is a guest on a shared host.  A fixed
interpreter loop takes 8.5 to 20 ms of *CPU time* there from one second
to the next, each vCPU on its own schedule, with slow episodes that
last from a second to over a minute (2.8x measured).  Raw timings of
identical runs then differ by more than any bound worth gating on (25%
between the quartiles of ten 30 s runs, measured), and no statistic
over a 30 s run removes a slow minute.

So the benchmark measures the machine too.  Every ``INTERVAL_S`` a
timer signal runs one fixed unit of interpreter work on the main thread
-- the thread the cluster and the simulator run on -- and notes how
long its two halves took: one bound by the core (arithmetic, dict and
list traffic), one by the memory system (reads that never repeat,
scattered over more memory than the caches hold, so that they miss
whatever the program around them keeps there).  ``factor(start, end)``
is the geometric mean of the two over an interval, relative to the
calm reference box; a CPU-bound timing over that interval divided by
it is the timing *at reference speed*.  Sampling costs the thread 2%.

Only CPU-bound timings are normalised: set-up and CPU per value
everywhere; wall time where the loop is saturated, i.e. the closed
loops and the sim.
The open loop's latency is set by the protocol's timers, which do not
slow down with the machine, and is reported as measured.

What this does not remove: each half follows a slow machine only in
part while the box is calm (fitted slopes 0.4 to 0.7; 1.0 in a slow
episode), so about 4% of spread remains between calm repetitions; and
the samples are spread evenly over time, not over where the program
runs, so a mostly idle loop is sampled mostly just after a wake-up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
CORE_ITERATIONS = 1_500
MEMORY_READS = 700
HEAP_BYTES = 1 << 24
# One unit's halves on the reference box when the host is calm.
CORE_REFERENCE_NS = 200_000
MEMORY_REFERENCE_NS = 240_000
GROUP = 5       # samples per 100 ms group; a group counts as its median


class MachineSpeed:
    """Unit times, stamped with ``time.perf_counter()``."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.core_ns: list[int] = []
        self.memory_ns: list[int] = []
        # Written, so that every page is the process's own.
        self.heap = bytearray(b"\x01") * HEAP_BYTES
        self.position = 12345
        self.table: dict = {}
        self.recent: list = []

    def tick(self, signum=None, frame=None) -> None:
        """One unit.  It creates no container, so it never sets off the
        collector and times that by mistake."""
        self.at.append(time.perf_counter())
        table, recent = self.table, self.recent
        start = time.perf_counter_ns()
        total = 0
        for i in range(CORE_ITERATIONS):
            total += i * i % 7
            table[i & 255] = total
            recent.append(table.get(total & 255))
            if len(recent) > 64:
                recent.clear()
        middle = time.perf_counter_ns()
        heap, position, mask = self.heap, self.position, HEAP_BYTES - 1
        for _ in range(MEMORY_READS):
            position = (position * 1103515245 + 12345) & mask
            total += heap[position]
        self.position = position
        self.core_ns.append(middle - start)
        self.memory_ns.append(time.perf_counter_ns() - middle)

    def start(self, tick=None) -> None:
        """Sample from now on; ``tick`` replaces :meth:`tick` as the
        handler (the traced run wraps it in a span)."""
        signal.signal(signal.SIGALRM, tick or self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, units: int = 3 * GROUP) -> float:
        """The factor right now, from ``units`` units run back to back
        (what a timing that ended just now, such as set-up, is divided
        by)."""
        start = time.perf_counter()
        for _ in range(units):
            self.tick()
        return self.factor(start, time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference box the machine ran
        between ``start`` and ``end`` (1.0 = as fast).

        Each half is the mean over the interval's groups of samples, a
        group taken as its median: a slow stretch counts for as long as
        it lasts, one sample that an interrupt landed on does not.
        """
        low = bisect.bisect_left(self.at, start)
        high = bisect.bisect_right(self.at, end)
        if high - low < GROUP:      # too short: use every sample
            low, high = 0, len(self.at)
        if high == low:
            return 1.0

        def slowdown(samples: list[int], reference: int) -> float:
            return statistics.fmean(
                statistics.median(samples[i:i + GROUP])
                for i in range(low, high, GROUP)
            ) / reference

        return (
            slowdown(self.core_ns, CORE_REFERENCE_NS)
            * slowdown(self.memory_ns, MEMORY_REFERENCE_NS)
        ) ** 0.5
