"""Key/value store replica.

A :class:`KvReplica` is a :class:`~repro.multicast.replica.MulticastReplica`
whose application is the partitioned store of §VI:

* single-partition commands (put/get) are applied if and only if this
  replica's shard owns the key under the *current* partition map --
  commands that reach the wrong shard after a split are discarded and
  the client retries after a timeout (§VII-D);
* multi-partition commands (getrange) execute against the local shard
  at their merge position and the reply is withheld until an execution
  signal from every other partition arrives (the S-SMR-style "direct
  signal messages" of §VI), so the response is consistent across shards;
* ``MapChangeCmd`` installs a new partition map at a deterministic
  point of the merged order and drops the keys this shard no longer
  owns.

Execution cost is modelled by a per-replica CPU server; its utilisation
is what Fig. 4's CPU panel plots.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..multicast.replica import MulticastReplica
from ..multicast.stream import StreamDeployment
from ..obs.metrics import Counter
from ..paxos.types import AppValue
from ..runtime.kernel import Kernel, Transport
from ..runtime.resources import Server
from .commands import (
    CommandReply,
    DeleteCmd,
    GetCmd,
    MapChangeCmd,
    PutCmd,
    RangeCmd,
    SignalMsg,
    StateTransferReply,
    StateTransferRequest,
    TxnCmd,
)
from .partitioning import PartitionMap
from .store import InMemoryStore

__all__ = ["KvReplica"]

# CPU units one command costs on the replica's ``cpu_rate`` server.
_PUT_COST = 1.0
_GET_COST = 1.0
_RANGE_COST_PER_KEY = 0.05


class KvReplica(MulticastReplica):
    """One replica of one shard of the key/value store."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        group: str,
        directory: Mapping[str, StreamDeployment],
        partition_map: PartitionMap,
        cpu_rate: float = 5000.0,
    ):
        super().__init__(env, network, name, group, directory)
        self.store = InMemoryStore()
        self.partition_map = partition_map
        self.cpu = Server(env, rate=cpu_rate, name=f"{name}:cpu")

        self.executed = 0
        self.applied_ops = Counter(env, f"{name}:applied")
        self.discarded_misdirected = 0
        # Multi-partition commands awaiting peer signals:
        # cmd_id -> {"result":..., "client":..., "waiting": set of partitions}
        self._pending_ranges: dict[int, dict] = {}
        # Signals that raced ahead of the command's local delivery.
        self._early_signals: dict[int, set[int]] = {}
        # Rows handed off at each map version (for state transfer) and
        # transfer requests that arrived before we installed that map.
        self._handoff: dict[int, tuple] = {}
        self._waiting_transfers: dict[int, list[str]] = {}

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self):
        return {
            "rows": {key: self.store.get(key) for key in self.store.keys()},
            "map": self.partition_map,
        }

    def restore_state(self, state) -> None:
        self.store = InMemoryStore()
        for key, value in state["rows"].items():
            self.store.put(key, value)
        self.partition_map = state["map"]
        # In-flight multi-partition coordination died with the crash;
        # clients re-drive those commands after their timeout.
        self._pending_ranges = {}
        self._early_signals = {}

    # -- identity under the current map -------------------------------------

    @property
    def partition_index(self) -> Optional[int]:
        partition = self.partition_map.partition_of_replica(self.name)
        return partition.index if partition else None

    # -- command execution --------------------------------------------------------

    def apply(self, value: AppValue, stream: str, position: int) -> None:
        command = value.payload
        if isinstance(command, PutCmd):
            self._apply_put(command)
        elif isinstance(command, GetCmd):
            self._apply_get(command)
        elif isinstance(command, DeleteCmd):
            self._apply_delete(command)
        elif isinstance(command, RangeCmd):
            self._apply_range(command)
        elif isinstance(command, TxnCmd):
            self._apply_txn(command)
        elif isinstance(command, MapChangeCmd):
            self._apply_map_change(command)
        else:
            raise TypeError(f"{self.name}: unknown command {command!r}")

    def _apply_put(self, cmd: PutCmd) -> None:
        if not self.partition_map.owns(self.name, cmd.key):
            self.discarded_misdirected += 1
            return
        self.store.put(cmd.key, cmd.value)
        self._finish(cmd.client, cmd.cmd_id, True, "stored", cost=_PUT_COST)

    def _apply_get(self, cmd: GetCmd) -> None:
        if not self.partition_map.owns(self.name, cmd.key):
            self.discarded_misdirected += 1
            return
        result = self.store.get(cmd.key)
        self._finish(cmd.client, cmd.cmd_id, True, result, cost=_GET_COST)

    def _apply_delete(self, cmd: DeleteCmd) -> None:
        if not self.partition_map.owns(self.name, cmd.key):
            self.discarded_misdirected += 1
            return
        existed = self.store.delete(cmd.key)
        self._finish(cmd.client, cmd.cmd_id, True, existed, cost=_PUT_COST)

    def _apply_range(self, cmd: RangeCmd) -> None:
        # Snapshot the local shard's slice at the merge position: this
        # is the linearization point of the multi-partition query.
        rows = self.store.get_range(cmd.start, cmd.end)
        my_partition = self.partition_map.partition_of_replica(self.name)
        if my_partition is None:
            self.discarded_misdirected += 1
            return
        others = [
            p for p in self.partition_map.partitions if p.index != my_partition.index
        ]
        for partition in others:
            for replica in partition.replicas:
                self.send(
                    replica,
                    SignalMsg(
                        cmd_id=cmd.cmd_id,
                        partition=my_partition.index,
                        replica=self.name,
                    ),
                )
        waiting = {p.index for p in others}
        waiting -= self._early_signals.pop(cmd.cmd_id, set())
        cost = _GET_COST + _RANGE_COST_PER_KEY * len(rows)
        if not waiting:
            self._finish(cmd.client, cmd.cmd_id, True, rows, cost=cost)
            return
        self._pending_ranges[cmd.cmd_id] = {
            "client": cmd.client,
            "result": rows,
            "waiting": waiting,
            "cost": cost,
        }

    def _apply_txn(self, cmd: TxnCmd) -> None:
        """Execute the one-shot transaction's ops on the owned keys.

        The command was delivered at the same merged position at every
        involved partition (shared stream, or the single owning
        partition's stream), so applying the owned subset here and
        waiting for the peers' execution signals yields an atomic,
        linearizable multi-key operation.
        """
        my_partition = self.partition_map.partition_of_replica(self.name)
        if my_partition is None:
            self.discarded_misdirected += 1
            return
        involved = {
            self.partition_map.partition_of(key).index for key in cmd.keys()
        }
        if my_partition.index not in involved:
            return   # delivered via the shared stream but not our keys
        results = {}
        writes = 0
        for key, op, arg in cmd.ops:
            if not self.partition_map.owns(self.name, key):
                continue
            if op == "put":
                self.store.put(key, arg)
                writes += 1
            elif op == "add":
                current = self.store.get(key) or 0
                self.store.put(key, current + arg)
                results[key] = current + arg
                writes += 1
            elif op == "read":
                results[key] = self.store.get(key)
            else:
                raise ValueError(f"unknown txn op {op!r}")
        others = involved - {my_partition.index}
        for index in others:
            for replica in self.partition_map.partitions[index].replicas:
                self.send(
                    replica,
                    SignalMsg(
                        cmd_id=cmd.cmd_id,
                        partition=my_partition.index,
                        replica=self.name,
                    ),
                )
        waiting = set(others)
        waiting -= self._early_signals.pop(cmd.cmd_id, set())
        cost = _PUT_COST * max(1, writes)
        if not waiting:
            self._finish(cmd.client, cmd.cmd_id, True, results, cost=cost)
            return
        self._pending_ranges[cmd.cmd_id] = {
            "client": cmd.client,
            "result": results,
            "waiting": waiting,
            "cost": cost,
        }

    def on_signal_msg(self, msg: SignalMsg, src: str) -> None:
        pending = self._pending_ranges.get(msg.cmd_id)
        if pending is None:
            # The signal outran our own delivery of the command.
            self._early_signals.setdefault(msg.cmd_id, set()).add(msg.partition)
            return
        pending["waiting"].discard(msg.partition)
        if not pending["waiting"]:
            del self._pending_ranges[msg.cmd_id]
            self._finish(
                pending["client"],
                msg.cmd_id,
                True,
                pending["result"],
                cost=pending["cost"],
            )

    def _apply_map_change(self, cmd: MapChangeCmd) -> None:
        new_map: PartitionMap = cmd.new_map
        if new_map.version <= self.partition_map.version:
            return   # duplicate copy delivered via another stream
        old_map = self.partition_map
        self.partition_map = new_map

        # Hand off the rows this shard no longer owns: they are kept,
        # keyed by map version, so a gaining shard can fetch them
        # (URingPaxos's checkpoint/state-transfer path).
        handed_off = []

        def keep(key: str) -> bool:
            if new_map.owns(self.name, key):
                return True
            handed_off.append((key, self.store.get(key)))
            return False

        self.store.retain_only(keep)
        self._handoff[new_map.version] = tuple(handed_off)
        for requester in self._waiting_transfers.pop(new_map.version, []):
            self._answer_transfer(requester, new_map.version)

        # Request rows this shard gained from the shards that held them.
        # A replica that belonged to the shedding shard already has the
        # data (the Fig. 4 split), so only foreign old shards are asked.
        if new_map.partition_of_replica(self.name) is not None:
            for old_partition in old_map.partitions:
                if self.name not in old_partition.replicas:
                    self.send(
                        old_partition.replicas[0],
                        StateTransferRequest(
                            version=new_map.version, requester=self.name
                        ),
                    )

    def on_state_transfer_request(self, msg: StateTransferRequest, src: str) -> None:
        if msg.version not in self._handoff:
            # We have not installed that map yet: answer once we do.
            self._waiting_transfers.setdefault(msg.version, []).append(
                msg.requester
            )
            return
        self._answer_transfer(msg.requester, msg.version)

    def _answer_transfer(self, requester: str, version: int) -> None:
        rows = tuple(
            (key, value)
            for key, value in self._handoff.get(version, ())
        )
        self.send(requester, StateTransferReply(version=version, rows=rows))

    def on_state_transfer_reply(self, msg: StateTransferReply, src: str) -> None:
        if msg.version != self.partition_map.version:
            return   # stale transfer for a superseded map
        for key, value in msg.rows:
            if not self.partition_map.owns(self.name, key):
                continue
            if key not in self.store:
                # A write ordered after the map change beats the
                # transferred snapshot; only fill absent keys.
                self.store.put(key, value)

    def _finish(self, client: str, cmd_id: int, ok: bool, result, cost: float) -> None:
        """Charge the CPU, then reply to the client."""
        self.executed += 1
        self.applied_ops.record()
        partition = self.partition_index
        reply = CommandReply(
            cmd_id=cmd_id,
            ok=ok,
            result=result,
            partition=partition if partition is not None else -1,
            replica=self.name,
        )
        self.cpu.request(cost, self.send, client, reply)
