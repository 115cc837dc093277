"""Acceptor log with trimming.

An acceptor must remember, per consensus instance, the highest ballot it
promised/accepted and the accepted value.  Elastic Paxos additionally
relies on the log for *recovery*: a replica subscribing to a stream
re-learns every decided instance from the acceptors' logs, so the log
also records decided instances and supports safe trimming once replicas
have checkpointed (URingPaxos's trim mechanism, Benz et al. 2015).

The log keeps every instance until it is trimmed, so its per-instance
cost is what an acceptor's memory grows by.  It is held in three
columns indexed from the trim horizon -- ballots, values and one state
byte each -- rather than one object per instance: about 17 bytes an
instance on top of the value itself (docs/RUNTIME.md, "Memory per
entry").
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, NamedTuple, Optional

__all__ = ["AcceptorLog", "InstanceSet", "LogEntry", "TrimError"]

# An instance's state byte: never touched (a hole below the highest
# instance), touched but not known decided, known decided.
_ABSENT, _PRESENT, _DECIDED = 0, 1, 2


class TrimError(Exception):
    """Raised when a trim would drop state that is still needed."""


class LogEntry(NamedTuple):
    """A read-only view of one instance's acceptor state."""

    vrnd: int = -1            # ballot in which a value was last accepted
    value: Any = None         # the accepted value
    decided: bool = False     # set once the instance is known decided


class AcceptorLog:
    """Instance-indexed acceptor storage with a trim horizon.

    Column slot ``i`` holds instance ``trimmed_below + i``; the columns
    end at the highest instance touched since the horizon.
    """

    def __init__(self):
        self._trimmed_below = 0   # instances < this have been discarded
        self._vrnd: list[int] = []
        self._values: list[Any] = []
        self._state = bytearray()
        self._highest = -1
        self._highest_decided = -1

    def _slot(self, instance: int) -> int:
        """The column slot of ``instance``, touching it (and padding the
        columns with holes up to it) if it was never touched."""
        index = instance - self._trimmed_below
        if index < 0:
            raise TrimError(f"instance {instance} was trimmed")
        state = self._state
        pad = index + 1 - len(state)
        if pad > 0:
            self._vrnd.extend([-1] * pad)
            self._values.extend([None] * pad)
            state.extend(bytes(pad))
            self._highest = instance
        if not state[index]:
            state[index] = _PRESENT
        return index

    # -- basic access ---------------------------------------------------

    def entry(self, instance: int) -> LogEntry:
        """Return the entry for ``instance``, touching it if absent."""
        return self._view(self._slot(instance))

    def get(self, instance: int) -> Optional[LogEntry]:
        """Return the entry for ``instance`` or None (never touches)."""
        index = instance - self._trimmed_below
        if 0 <= index < len(self._state) and self._state[index]:
            return self._view(index)
        return None

    def _view(self, index: int) -> LogEntry:
        return LogEntry(
            self._vrnd[index], self._values[index],
            self._state[index] == _DECIDED,
        )

    def accept(self, instance: int, ballot: int, value: Any) -> None:
        """Record acceptance of ``value`` at ``ballot`` for ``instance``."""
        state = self._state
        index = instance - self._trimmed_below
        if index == len(state):
            self._vrnd.append(ballot)
            self._values.append(value)
            state.append(_PRESENT)
            self._highest = instance
            return
        index = self._slot(instance)
        self._vrnd[index] = ballot
        self._values[index] = value

    def learn(self, instance: int, value: Any) -> None:
        """Record that ``instance`` is decided with ``value``.

        A value accepted before is kept (a decision carries the same
        one); an instance that accepted nothing takes ``value`` at
        ballot 0.
        """
        state = self._state
        index = instance - self._trimmed_below
        if index == len(state):
            self._vrnd.append(0)
            self._values.append(value)
            state.append(_DECIDED)
            self._highest = instance
        else:
            if not 0 <= index < len(state):
                index = self._slot(instance)
            values = self._values
            if values[index] is None:
                values[index] = value
                if self._vrnd[index] < 0:
                    self._vrnd[index] = 0
            state[index] = _DECIDED
        if instance > self._highest_decided:
            self._highest_decided = instance

    def mark_decided(self, instance: int) -> None:
        index = self._slot(instance)
        if self._values[index] is None:
            raise ValueError(f"instance {instance} decided without a value")
        self._state[index] = _DECIDED
        if instance > self._highest_decided:
            self._highest_decided = instance

    def decided_value(self, instance: int) -> Any:
        """Value of a decided instance; raises if unknown or undecided."""
        index = instance - self._trimmed_below
        if index < 0:
            raise TrimError(f"instance {instance} was trimmed")
        if index >= len(self._state) or self._state[index] != _DECIDED:
            raise KeyError(f"instance {instance} is not decided here")
        return self._values[index]

    def is_decided(self, instance: int) -> bool:
        index = instance - self._trimmed_below
        return 0 <= index < len(self._state) and self._state[index] == _DECIDED

    # -- introspection ---------------------------------------------------

    @property
    def highest_instance(self) -> int:
        """Highest instance this log has touched (-1 if empty)."""
        return self._highest

    @property
    def highest_decided(self) -> int:
        """Highest decided instance still held (-1 if none)."""
        return self._highest_decided

    @property
    def trimmed_below(self) -> int:
        return self._trimmed_below

    def decided_instances(self) -> list[int]:
        base = self._trimmed_below
        return [
            base + index
            for index, state in enumerate(self._state) if state == _DECIDED
        ]

    def __len__(self) -> int:
        return len(self._state) - self._state.count(_ABSENT)

    # -- trimming ---------------------------------------------------------

    def trim(self, below: int) -> int:
        """Discard all instances < ``below``; returns how many were dropped.

        Every discarded instance must be decided: trimming an undecided
        instance could lose an accepted value that a future quorum needs.
        """
        base = self._trimmed_below
        if below <= base:
            return 0
        state = self._state
        cut = min(below - base, len(state))
        undecided = state.find(_PRESENT, 0, cut)
        if undecided >= 0:
            raise TrimError(
                f"cannot trim undecided instance {base + undecided} (< {below})"
            )
        dropped = cut - state.count(_ABSENT, 0, cut)
        self._drop(cut, below)
        return dropped

    def trim_decided(self, below: int) -> list[Any]:
        """Discard the instances below ``below`` up to the first one not
        decided here; returns their values, oldest first.  What an
        acceptor may drop: only a decided prefix is safe to lose."""
        state = self._state
        cut = min(below - self._trimmed_below, len(state))
        if cut <= 0:
            return []
        for stop in (state.find(_PRESENT, 0, cut), state.find(_ABSENT, 0, cut)):
            if 0 <= stop < cut:
                cut = stop
        values = self._values[:cut]
        if cut:
            self._drop(cut, self._trimmed_below + cut)
        return values

    def _drop(self, cut: int, below: int) -> None:
        del self._vrnd[:cut], self._values[:cut], self._state[:cut]
        self._trimmed_below = below
        if self._highest_decided < below:
            self._highest_decided = -1


class InstanceSet:
    """A set of instance numbers, held as sorted disjoint runs.

    Instances are decided mostly in order, so the set is one run
    ``[start, end)`` plus a run per straggler: its memory follows the
    gaps, not the count.
    """

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._count = 0

    def __contains__(self, instance: int) -> bool:
        index = bisect_right(self._starts, instance)
        return index > 0 and instance < self._ends[index - 1]

    def __len__(self) -> int:
        return self._count

    def add(self, instance: int) -> None:
        starts, ends = self._starts, self._ends
        index = bisect_right(starts, instance)
        if index and instance < ends[index - 1]:
            return
        self._count += 1
        after = instance + 1
        joins_left = index > 0 and ends[index - 1] == instance
        joins_right = index < len(starts) and starts[index] == after
        if joins_left and joins_right:
            ends[index - 1] = ends[index]
            del starts[index], ends[index]
        elif joins_left:
            ends[index - 1] = after
        elif joins_right:
            starts[index] = instance
        else:
            starts.insert(index, instance)
            ends.insert(index, after)
