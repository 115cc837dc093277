"""Key/value store client.

Runs N closed-loop worker threads (the paper's "client VM with
100 threads").  Each worker builds a command from its workload, routes
it to the responsible partition's stream (single-key ops) or to the
shared stream (ranges), and waits for the reply with a timeout.

On timeout the command is re-sent -- after a re-partitioning, commands
that reached the wrong shard were discarded there, and this retry (with
the refreshed partition map pushed by the registry watch) is what
produces the ~1 s gap in Fig. 4.  Replicas of a shard all reply; the
first reply completes the command and duplicates are dropped.

Workers are state machines on ``call_later``: a command's send adds
its expiry to the client's one :class:`~repro.runtime.kernel.Expiries`,
and whichever of the last reply and the expiry comes first wakes it,
one calendar step later, to finish or to re-send.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Optional

from ..coordination.registry import RegistryClient
from ..multicast.stream import StreamDeployment
from ..net.actor import Actor
from ..obs.metrics import Counter, Series
from ..paxos.messages import Propose
from ..paxos.types import AppValue
from ..runtime.kernel import Expiries, Kernel, Transport
from ..workload.generators import KeyspaceWorkload
from .commands import CommandReply, DeleteCmd, GetCmd, PutCmd, RangeCmd, TxnCmd
from .partitioning import PartitionMap

__all__ = ["KvClient"]

PARTITION_MAP_KEY = "kvstore/partition-map"


class _Worker:
    """One closed-loop worker thread; stopped by ``stop_workers``."""

    __slots__ = ("stopped",)

    def __init__(self):
        self.stopped = False


class _Request:
    """A command driven to completion: re-sent, under the partition map
    of the moment, after every expiry until all its partitions reply."""

    __slots__ = ("command", "stream", "size", "started", "on_done", "worker")

    def __init__(self, command, stream: str, size: int, started: float,
                 on_done: Callable[[list], None], worker: Optional[_Worker]):
        self.command = command
        self.stream = stream
        self.size = size
        self.started = started
        self.on_done = on_done
        self.worker = worker


class _Attempt:
    """One send of a request: the partitions that replied to it, and
    whether the last reply or the expiry woke it first."""

    __slots__ = ("request", "need", "partitions", "results", "done", "woken")

    def __init__(self, request: _Request, need: int):
        self.request = request
        self.need = need
        self.partitions: set = set()
        self.results: list = []
        self.done = False
        self.woken = False

    def waiting(self) -> bool:
        """Neither woken yet nor of a stopped worker: its expiry is due."""
        worker = self.request.worker
        return not self.woken and (worker is None or not worker.stopped)


class KvClient(Actor):
    """A client VM running closed-loop worker threads."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        directory: Mapping[str, StreamDeployment],
        partition_map: PartitionMap,
        workload: KeyspaceWorkload,
        n_threads: int = 100,
        timeout: float = 1.0,
        think_time: float = 0.0,
        rng: Optional[random.Random] = None,
        registry_name: Optional[str] = "registry",
    ):
        super().__init__(env, network, name)
        self.directory = directory
        self.partition_map = partition_map
        self.workload = workload
        self.n_threads = n_threads
        self.think_time = think_time
        self.rng = rng or random.Random(0)

        self.ops = Counter(env, f"{name}:ops")
        self.latency = Series(env, f"{name}:latency")
        self.timeouts = 0
        self.completed = 0
        self._pending: dict[int, _Attempt] = {}
        self._expiries = Expiries(env, timeout, self._wake, _Attempt.waiting)
        self._workers: list[_Worker] = []

        self.registry: Optional[RegistryClient] = None
        if registry_name is not None:
            self.registry = RegistryClient(self, registry_name)

    # -- lifecycle ------------------------------------------------------------

    def start_workers(self) -> None:
        """Start the receive loop, the registry watch and all threads."""
        self.start()
        if self.registry is not None:
            self.registry.watch(PARTITION_MAP_KEY, self._on_map_update)
        for _ in range(self.n_threads):
            worker = _Worker()
            self._workers.append(worker)
            self.env.call_later(0.0, self._next_command, worker)

    def stop_workers(self) -> None:
        """Stop every worker (nothing more is sent; a command in flight
        is dropped when it wakes) and the receive loop."""
        for worker in self._workers:
            worker.stopped = True
        self._workers = []
        self.stop()

    def _on_map_update(self, value, version) -> None:
        if value is not None:
            self.partition_map = value

    # -- command construction ----------------------------------------------------

    def _build_command(self, spec):
        kind = spec[0]
        if kind == "put":
            _k, key, size = spec
            command = PutCmd(
                key=key, value=f"v{size}", value_size=size, client=self.name
            )
            return command, self.partition_map.partition_of(key).stream, size
        if kind == "get":
            command = GetCmd(key=spec[1], client=self.name)
            return command, self.partition_map.partition_of(spec[1]).stream, 64
        if kind == "delete":
            command = DeleteCmd(key=spec[1], client=self.name)
            return command, self.partition_map.partition_of(spec[1]).stream, 64
        if kind == "range":
            command = RangeCmd(start=spec[1], end=spec[2], client=self.name)
            if self.partition_map.shared_stream is None:
                raise ValueError(
                    "range commands need a shared stream in the partition map"
                )
            return command, self.partition_map.shared_stream, 64
        if kind == "txn":
            command = TxnCmd(ops=tuple(spec[1]), client=self.name)
            return command, self._route(command), 64 + 24 * len(command.ops)
        raise ValueError(f"unknown command spec {spec!r}")

    def _involved_partitions(self, command: TxnCmd) -> set:
        return {
            self.partition_map.partition_of(key).index for key in command.keys()
        }

    def _route(self, command) -> str:
        """Re-resolve the target stream under the *current* map."""
        if isinstance(command, (PutCmd, GetCmd, DeleteCmd)):
            return self.partition_map.partition_of(command.key).stream
        if isinstance(command, TxnCmd):
            involved = self._involved_partitions(command)
            if len(involved) == 1:
                return self.partition_map.partitions[involved.pop()].stream
            if self.partition_map.shared_stream is None:
                raise ValueError(
                    "multi-partition transactions need a shared stream"
                )
            return self.partition_map.shared_stream
        return self.partition_map.shared_stream

    def _expected_partitions(self, command) -> int:
        if isinstance(command, RangeCmd):
            return self.partition_map.n_partitions
        if isinstance(command, TxnCmd):
            return len(self._involved_partitions(command))
        return 1

    # -- the closed loop -----------------------------------------------------------

    def execute(self, spec, on_done: Callable[[list], None]) -> None:
        """Drive one command spec to completion (retrying on timeout),
        then call ``on_done(results)`` with the partial results, one per
        replying partition.  This is also what each closed-loop worker
        runs per iteration, so direct callers get identical
        routing/retry/metrics behaviour.
        """
        self._execute(spec, on_done, None)

    def _execute(self, spec, on_done, worker: Optional[_Worker]) -> None:
        command, stream, size = self._build_command(spec)
        self._send(_Request(command, stream, size, self.env.now, on_done, worker))

    def _send(self, request: _Request) -> None:
        command = request.command
        attempt = _Attempt(request, self._expected_partitions(command))
        self._pending[command.cmd_id] = attempt
        stream = request.stream
        coordinator = self.directory[stream].config.coordinator
        self.send(
            coordinator,
            Propose(
                stream=stream,
                token=AppValue(
                    payload=command, size=request.size, sender=self.name
                ),
            ),
        )
        self._expiries.add(attempt)

    def _wake(self, attempt: _Attempt) -> None:
        """The last reply's step or the expiry: the first one resumes
        the request in the next step, later ones do nothing."""
        if not attempt.woken:
            attempt.woken = True
            self.env.call_later(0.0, self._resume, attempt)

    def _resume(self, attempt: _Attempt) -> None:
        request = attempt.request
        if request.worker is not None and request.worker.stopped:
            return
        if not attempt.done:
            # Timed out: drop the stale wait, re-route under the
            # (possibly updated) partition map and resend.
            self._pending.pop(request.command.cmd_id, None)
            self.timeouts += 1
            request.stream = self._route(request.command)
            self._send(request)
            return
        self.completed += 1
        self.ops.record()
        self.latency.record(self.env.now - request.started)
        request.on_done(attempt.results)

    def _next_command(self, worker: _Worker) -> None:
        if not worker.stopped:
            spec = self.workload.next_command(self.rng)
            self._execute(spec, lambda _results: self._think(worker), worker)

    def _think(self, worker: _Worker) -> None:
        if self.think_time > 0:
            self.env.call_later(self.think_time, self._next_command, worker)
        else:
            self._next_command(worker)

    # -- replies ------------------------------------------------------------------

    def on_command_reply(self, msg: CommandReply, src: str) -> None:
        attempt = self._pending.get(msg.cmd_id)
        if attempt is None:
            return   # duplicate (other replica) or post-timeout straggler
        if msg.partition in attempt.partitions:
            return   # the shard's other replica answered already
        attempt.partitions.add(msg.partition)
        attempt.results.append(msg.result)
        if len(attempt.partitions) >= attempt.need:
            del self._pending[msg.cmd_id]
            attempt.done = True
            self.env.call_later(0.0, self._wake, attempt)

    def dispatch(self, payload, src):
        if self.registry is not None and self.registry.handle_registry_message(payload):
            return
        super().dispatch(payload, src)
