"""Always-on profiling for the live runtime.

Two probes, both cheap enough to leave running (docs/OBSERVABILITY.md,
"Latency attribution & profiling"):

- :class:`StackSampler` -- a background thread that samples *every*
  thread's Python stack at a fixed interval and aggregates them into
  flamegraph-compatible collapsed stacks (``thread;frame;... count``
  lines, directly consumable by ``flamegraph.pl`` / speedscope).  The
  live supervisor writes one ``<node>.stacks.txt`` per node with
  ``repro live --profile-dir``, and each node's telemetry server
  exposes ``/profile`` to toggle/fetch it at runtime.  A simulator
  run is profiled the same way: start a sampler around the call and
  ``write_collapsed`` it (docs/PERFORMANCE.md, "Profiling workflow").
- :class:`LoopLagProbe` -- measures asyncio event-loop scheduling lag
  on an :class:`~repro.runtime.asyncio_kernel.AsyncioKernel` by timing
  how late a repeating ``call_later`` callback fires, exported as a
  *windowed* ``loop_lag_ms`` histogram in the metrics registry (so
  ``/metrics`` quantiles reflect the recent window, not the whole run).

Stdlib-only on purpose: ``repro.runtime`` must not import ``repro.sim``
at module scope (tests/runtime/test_layering.py).
"""

from __future__ import annotations

import collections
import sys
import threading
import time
from typing import Any, Optional

__all__ = ["LoopLagProbe", "StackSampler"]


class StackSampler:
    """Samples every live thread's Python stack from a daemon thread.

    ``samples`` maps ``(thread_name, frames)`` -- frames root-first as
    ``file.py:function`` strings -- to the number of times that exact
    stack was observed.  The sampler never samples its own thread.
    """

    def __init__(self, interval: float = 0.02, depth: int = 48):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.interval = interval
        self.depth = depth
        self.samples: collections.Counter = collections.Counter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # file.py:function strings cached per code object: formatting is
        # the hot part of a sample, and the working set of code objects
        # is small and stable.
        self._frame_names: dict[Any, str] = {}

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def total(self) -> int:
        """Total number of stacks observed (across all threads)."""
        return sum(self.samples.values())

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> int:
        """Stop sampling (idempotent); returns the total sample count."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
            self._thread = None
        return self.total

    def sample_once(self) -> None:
        """Take one sample of every thread except the calling one."""
        names = {t.ident: t.name for t in threading.enumerate()}
        me = threading.get_ident()
        frame_names = self._frame_names
        for ident, frame in sys._current_frames().items():
            if ident == me:
                continue
            frames = []
            current: Any = frame
            while current is not None and len(frames) < self.depth:
                code = current.f_code
                name = frame_names.get(code)
                if name is None:
                    name = (
                        f"{code.co_filename.rsplit('/', 1)[-1]}"
                        f":{code.co_name}"
                    )
                    frame_names[code] = name
                frames.append(name)
                current = current.f_back
            frames.reverse()   # root-first: collapsed-stack order
            thread = names.get(ident, f"thread-{ident}")
            self.samples[(thread, tuple(frames))] += 1

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample_once()
            time.sleep(self.interval)

    def collapsed(self) -> str:
        """Flamegraph-collapsed stacks: ``thread;frame;... count`` per
        line, heaviest first (ties broken lexically, so output is
        deterministic for a given sample set)."""
        ordered = sorted(self.samples.items(), key=lambda kv: (-kv[1], kv[0]))
        lines = [
            ";".join((thread,) + frames) + f" {count}"
            for (thread, frames), count in ordered
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> int:
        """Write :meth:`collapsed` to ``path``; returns distinct stacks."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed())
        return len(self.samples)


class LoopLagProbe:
    """Windowed event-loop scheduling-lag histogram for a live kernel.

    Re-arms itself with ``kernel.call_later(interval, ...)`` and records
    how late each callback fired (milliseconds, clamped at zero) into
    ``(actor, "loop_lag_ms")``.  Sustained lag means the loop is CPU- or
    IO-bound enough to delay every timer and send on the node -- the
    first thing to check when the latency budget blames a live segment.
    """

    METRIC = "loop_lag_ms"

    def __init__(
        self,
        kernel: Any,
        registry: Any,
        actor: str = "loop",
        interval: float = 0.1,
        window: float = 30.0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.kernel = kernel
        self.actor = actor
        self.interval = interval
        self.ticks = 0
        self._histogram = registry.windowed_histogram(
            actor, self.METRIC, window=window
        )
        self._running = False
        self._expected = 0.0

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._expected = self.kernel._now + self.interval
        self.kernel.call_later(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False   # the armed callback sees this and stops

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.kernel._now
        lag = now - self._expected
        self._histogram.record(1000.0 * (lag if lag > 0.0 else 0.0))
        self.ticks += 1
        self._expected = now + self.interval
        self.kernel.call_later(self.interval, self._tick)
