"""The safety specification of Elastic Paxos, executable, stated once.

:class:`SafetySpec` is a pure reducer over what replicas were *observed*
to do -- it knows nothing of simulators, sockets, traces or tracers, and
imports nothing from the rest of the package.  Every checker in the
repository is a front-end that maps its input onto the three events
below: :class:`repro.faults.invariants.InvariantSuite` folds in-process
delivery logs, :class:`repro.obs.audit.SafetyCertifier` folds tailed (or
finished) trace files.  Each event returns the :class:`Violation`\\ s it
proves; the properties (§II and Fig. 2 of the paper; the table with
paper references is in docs/FAULTS.md) are:

``duplicate-delivery``
    Per observer and stream, delivered positions strictly increase.
    (A *gap* is not a violation here: at the delivery level it is
    indistinguishable from positions the stream skipped; contiguity is
    the learner's contract, ``tests/paxos``.)
``stream-agreement``
    A ``(stream, position)`` carries one ``msg_id``, at every observer
    of every group, for ever -- including an observer's own replay
    after :meth:`SafetySpec.recover`.
``prefix-agreement``
    The delivery sequences of a group's observers are prefixes of one
    canonical sequence (the one first observed).
``integrity``
    A group delivers a ``msg_id`` at most once.  Rests on ``msg_id``\\ s
    being unique per client *process*
    (:func:`repro.paxos.types.fresh_value_id`): a topology with a
    second client node is refused (``TopologySpec``'s placement check,
    ``tests/deploy/test_topology.py::test_a_second_client_node_is_refused``)
    and no fault scenario restarts the one client.
``acyclic-order``
    The union of the groups' canonical sequences, read as
    msg-precedes-msg edges, is a DAG: two groups never deliver a shared
    pair of messages in opposite orders (Fig. 2).
``merge-point``
    Every observer of a group that commits a subscription request
    computes the same merge point -- across recoveries too.

An *observer* is one delivery sequence that starts at the beginning of
its group's order: a replica, or one incarnation of a replica (a worker
restarted after ``kill -9`` replays from the start under a new observer
name; a replica restored from a checkpoint stays the same observer and
announces the replay with :meth:`~SafetySpec.recover`).

Memory: with ``bound=None`` the spec remembers every delivery.  With a
bound it compacts itself: whenever a stream's position map or a group's
canonical sequence exceeds 1.5 x ``bound`` entries the oldest are
retired down to ``bound``.  Deliveries below a compaction floor are
still checked for ``duplicate-delivery``, no longer value by value.
A :meth:`~SafetySpec.recover` whose replay would start below a floor
raises :class:`ReplayBelowFloor` instead of checking that replay less.
"""

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence

__all__ = ["PROPERTIES", "ReplayBelowFloor", "SafetySpec", "Violation"]

DUPLICATE_DELIVERY = "duplicate-delivery"
STREAM_AGREEMENT = "stream-agreement"
PREFIX_AGREEMENT = "prefix-agreement"
INTEGRITY = "integrity"
ACYCLIC_ORDER = "acyclic-order"
MERGE_POINT = "merge-point"

PROPERTIES = (
    DUPLICATE_DELIVERY, STREAM_AGREEMENT, PREFIX_AGREEMENT, INTEGRITY,
    ACYCLIC_ORDER, MERGE_POINT,
)


class Violation(NamedTuple):
    """One safety-property violation proved from observed events."""

    property: str
    message: str
    at: float = 0.0                 # observation time of the proving event
    stream: Optional[str] = None
    position: Optional[int] = None
    msg_id: Any = None              # the message (or request) to look at
    observer: Optional[str] = None


class ReplayBelowFloor(ValueError):
    """A recovery whose replay would start below a compaction floor:
    what it replays there can no longer be compared with what was
    delivered, so the spec refuses it rather than check less.
    ``observer`` names the recovering observer, ``floor`` the retired
    bound (a delivery index of its group, or a stream position; the
    message says which)."""

    def __init__(self, message: str, observer: str, floor: int):
        super().__init__(message)
        self.observer = observer
        self.floor = floor


class _Observer:
    __slots__ = ("group", "index", "positions")

    def __init__(self, group: str) -> None:
        self.group = group
        self.index = 0                          # next index into the canon
        self.positions: Dict[str, int] = {}     # stream -> last position


class _Group:
    __slots__ = ("canon", "base", "members")

    def __init__(self) -> None:
        # canon[i - base] = (stream, position, msg_id): the group's
        # delivery sequence as first observed; members = its msg_ids.
        self.canon: List[tuple] = []
        self.base = 0
        self.members: set = set()


class _Stream:
    __slots__ = ("values", "floor")

    def __init__(self) -> None:
        self.values: Dict[int, Any] = {}        # position -> msg_id
        self.floor = 0                          # positions below: retired


class SafetySpec:
    """The reducer (module docstring).  Public state is read-only."""

    def __init__(self, bound: Optional[int] = None):
        self.bound = bound
        self.observers: Dict[str, _Observer] = {}
        self.groups: Dict[str, _Group] = {}
        self.streams: Dict[str, _Stream] = {}
        self.folded = 0                 # deliveries folded, ever
        self.cycle_searches = 0         # times the DFS actually ran
        self._merge_points: Dict[Any, tuple] = {}   # request -> first report
        self._canon_grew = False

    # -- events ---------------------------------------------------------

    def deliver(self, observer: str, group: str, stream: str, position: int,
                msg_id: Any, at: float = 0.0) -> List[Violation]:
        """``observer`` (of ``group``) delivered ``msg_id`` from
        ``stream`` at ``position``."""
        return self.fold(observer, group, ((stream, position, msg_id),), at)

    def fold(self, observer: str, group: str,
             deliveries: Iterable[Sequence], at: float = 0.0
             ) -> List[Violation]:
        """:meth:`deliver`, for a run of one observer's deliveries in
        order: sequences that start ``(stream, position, msg_id)``."""
        state = self.observers.get(observer)
        if state is None:
            state = self.observers[observer] = _Observer(group)
        grp = self.groups.get(group)
        if grp is None:
            grp = self.groups[group] = _Group()
        last, canon, members = state.positions, grp.canon, grp.members
        streams, bound = self.streams, self.bound
        index, folded = state.index, 0
        found: List[Violation] = []
        for delivery in deliveries:
            stream, position, msg_id = delivery[0], delivery[1], delivery[2]
            folded += 1

            previous = last.get(stream)
            if previous is not None and position <= previous:
                found.append(Violation(
                    DUPLICATE_DELIVERY,
                    f"{observer}: delivery positions of {stream} not "
                    f"strictly increasing ({position} after {previous})",
                    at, stream, position, msg_id, observer,
                ))
                continue
            last[stream] = position

            slot = index - grp.base
            index += 1
            expected = canon[slot] if 0 <= slot < len(canon) else None
            if (expected is not None and expected[2] == msg_id
                    and expected[1] == position and expected[0] == stream):
                # Agreeing with the canon is agreeing with the stream:
                # this entry passed the checks below when it was added.
                continue

            stream_state = streams.get(stream)
            if stream_state is None:
                stream_state = streams[stream] = _Stream()
            if position >= stream_state.floor:
                values = stream_state.values
                seen = values.setdefault(position, msg_id)
                if seen != msg_id:
                    found.append(Violation(
                        STREAM_AGREEMENT,
                        f"stream agreement broken at {stream}@{position}: "
                        f"{observer} delivered msg {msg_id}, msg {seen} "
                        f"was delivered there before",
                        at, stream, position, msg_id, observer,
                    ))
                elif bound is not None and len(values) > bound + bound // 2:
                    retired = sorted(values)[:len(values) - bound]
                    for old in retired:
                        del values[old]
                    stream_state.floor = retired[-1] + 1

            if slot < 0:
                continue        # below the group's compaction base
            if expected is not None:
                found.append(Violation(
                    PREFIX_AGREEMENT,
                    f"group {group} delivery #{index - 1}: {observer} "
                    f"delivered {stream}@{position} msg {msg_id}, diverges "
                    f"from the canonical order's {expected[0]}@"
                    f"{expected[1]} msg {expected[2]}",
                    at, stream, position, msg_id, observer,
                ))
                continue
            # First observer to get this far: it extends the canon.
            if msg_id in members:
                found.append(Violation(
                    INTEGRITY,
                    f"group {group} delivered msg {msg_id} twice: again "
                    f"at {stream}@{position} (delivery #{index - 1}, "
                    f"{observer})",
                    at, stream, position, msg_id, observer,
                ))
            members.add(msg_id)
            canon.append((stream, position, msg_id))
            self._canon_grew = True
            if bound is not None and len(canon) > bound + bound // 2:
                excess = len(canon) - bound
                members.difference_update(e[2] for e in canon[:excess])
                del canon[:excess]
                grp.base += excess
        state.index = index
        self.folded += folded
        return found

    def merge_point(self, observer: str, group: str, request_id: Any,
                    point: Any, at: float = 0.0) -> List[Violation]:
        """``observer`` (of ``group``) committed subscription
        ``request_id`` at merge point ``point`` (any value comparable by
        ``==``).  A request names one group and its id is as unique as a
        ``msg_id``, so the first report of a request stands for all."""
        first = self._merge_points.setdefault(request_id, (observer, point))
        if first[1] == point:
            return []
        return [Violation(
            MERGE_POINT,
            f"group {group}: merge point of request {request_id} differs: "
            f"{observer} computed {point}, {first[0]} computed {first[1]}",
            at, msg_id=request_id, observer=observer,
        )]

    def recover(self, observer: str, index: int,
                positions: Dict[str, int]) -> None:
        """``observer`` was restored to the state it had after its first
        ``index`` deliveries (``positions``: its last position per
        stream then) and will deliver the rest again.  What it delivered
        before stays remembered: the replay must reproduce it -- which
        is why a replay that would start below a compaction floor raises
        :class:`ReplayBelowFloor`."""
        state = self.observers[observer]
        if index > state.index:
            raise ValueError(
                f"{observer} recovers to delivery #{index} but only "
                f"{state.index} were observed"
            )
        base = self.groups[state.group].base
        if index < base:
            raise ReplayBelowFloor(
                f"{observer} recovers to delivery #{index}, below group "
                f"{state.group}'s compaction floor #{base}", observer, base,
            )
        for stream in state.positions:      # what a faithful replay redoes
            stream_state = self.streams.get(stream)
            resume = positions.get(stream, -1) + 1
            if stream_state is not None and resume < stream_state.floor:
                raise ReplayBelowFloor(
                    f"{observer} replays {stream} from position {resume}, "
                    f"below its compaction floor {stream_state.floor}",
                    observer, stream_state.floor,
                )
        state.index = index
        state.positions = dict(positions)

    def check_acyclic(self, at: float = 0.0) -> List[Violation]:
        """Search the union of the groups' (retained) canonical
        sequences for a cycle.  ``integrity`` makes one group's chain a
        simple path, so there is nothing to search with fewer than two
        groups, or when no canon grew since the last search."""
        if not self._canon_grew or len(self.groups) < 2:
            return []
        self._canon_grew = False
        self.cycle_searches += 1
        edges: Dict[Any, list] = {}
        for grp in self.groups.values():
            canon = grp.canon
            for i in range(1, len(canon)):
                edges.setdefault(canon[i - 1][2], []).append(canon[i][2])
        # Iterative three-colour DFS: absent = white, False = grey (on
        # the current path), True = black (finished).
        finished: Dict[Any, bool] = {}
        for root in edges:
            if root in finished:
                continue
            finished[root] = False
            path = [(root, iter(edges[root]))]
            while path:
                vertex, successors = path[-1]
                for successor in successors:
                    state = finished.get(successor)
                    if state is None:
                        finished[successor] = False
                        path.append(
                            (successor, iter(edges.get(successor, ())))
                        )
                        break
                    if state is False:
                        return [Violation(
                            ACYCLIC_ORDER,
                            f"delivery order cycle: msg {successor} both "
                            f"precedes and follows msg {vertex} across "
                            f"groups",
                            at, msg_id=successor,
                        )]
                else:
                    finished[vertex] = True
                    path.pop()
        return []
