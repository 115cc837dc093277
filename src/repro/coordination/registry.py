"""Configuration registry with watches (the ZooKeeper of URingPaxos).

URingPaxos stores ring management and protocol configuration in
ZooKeeper, and the paper's key/value store clients learn about
partition-map changes through ZooKeeper notifications ("The client is
notified about the change in the partitioning by ZooKeeper", §VII-D).

:class:`RegistryService` is a versioned key/value service with
one-shot-free (persistent) watches; :class:`RegistryClient` is the
stub other actors embed.  Both communicate over the simulated network,
so notification latency is part of every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..net.actor import Actor
from ..net.messages import Message
from ..runtime.kernel import Kernel, Transport

__all__ = [
    "RegistryClient",
    "RegistryService",
    "RegistryGet",
    "RegistryGetReply",
    "RegistrySet",
    "RegistrySetReply",
    "RegistryWatch",
    "WatchEvent",
]


@dataclass(frozen=True)
class RegistryGet(Message):
    key: str
    request_id: int


@dataclass(frozen=True)
class RegistryGetReply(Message):
    key: str
    request_id: int
    value: Any
    version: int            # -1 when the key does not exist


@dataclass(frozen=True)
class RegistrySet(Message):
    key: str
    value: Any
    request_id: int


@dataclass(frozen=True)
class RegistrySetReply(Message):
    key: str
    request_id: int
    version: int


@dataclass(frozen=True)
class RegistryWatch(Message):
    key: str


@dataclass(frozen=True)
class WatchEvent(Message):
    key: str
    value: Any
    version: int


class RegistryService(Actor):
    """A single versioned configuration store with persistent watches."""

    def __init__(self, env: Kernel, network: Transport, name: str = "registry"):
        super().__init__(env, network, name)
        self._data: dict[str, tuple[Any, int]] = {}
        self._watchers: dict[str, list[str]] = {}

    def on_registry_get(self, msg: RegistryGet, src: str) -> None:
        value, version = self._data.get(msg.key, (None, -1))
        self.send(
            src,
            RegistryGetReply(
                key=msg.key, request_id=msg.request_id, value=value, version=version
            ),
        )

    def on_registry_set(self, msg: RegistrySet, src: str) -> None:
        _old, version = self._data.get(msg.key, (None, -1))
        version += 1
        self._data[msg.key] = (msg.value, version)
        self.send(
            src,
            RegistrySetReply(key=msg.key, request_id=msg.request_id, version=version),
        )
        event = WatchEvent(key=msg.key, value=msg.value, version=version)
        for watcher in self._watchers.get(msg.key, ()):
            self.send(watcher, event)

    def on_registry_watch(self, msg: RegistryWatch, src: str) -> None:
        watchers = self._watchers.setdefault(msg.key, [])
        if src not in watchers:
            watchers.append(src)
        # Immediately report the current value so the watcher starts
        # from a known state (ZooKeeper getData+watch idiom).
        value, version = self._data.get(msg.key, (None, -1))
        self.send(src, WatchEvent(key=msg.key, value=value, version=version))

    # -- local (zero-latency) access for the test/deploy harness -------------

    def put_local(self, key: str, value: Any) -> int:
        """Set a key from the deployment harness, notifying watchers."""
        _old, version = self._data.get(key, (None, -1))
        version += 1
        self._data[key] = (value, version)
        event = WatchEvent(key=key, value=value, version=version)
        for watcher in self._watchers.get(key, ()):
            self.send(watcher, event)
        return version


class RegistryClient:
    """Embeddable stub: an actor mixes this in to talk to the registry.

    The owning actor must route :class:`RegistryGetReply`,
    :class:`RegistrySetReply` and :class:`WatchEvent` payloads to
    :meth:`handle_registry_message`.
    """

    def __init__(self, owner: Actor, registry_name: str = "registry"):
        self.owner = owner
        self.registry_name = registry_name
        self._next_request = 0
        self._get_callbacks: dict[int, Callable[[Any, int], None]] = {}
        self._set_callbacks: dict[int, Callable[[int], None]] = {}
        self._watch_callbacks: dict[str, Callable[[Any, int], None]] = {}

    def get(self, key: str, callback: Callable[[Any, int], None]) -> None:
        self._next_request += 1
        self._get_callbacks[self._next_request] = callback
        self.owner.send(
            self.registry_name, RegistryGet(key=key, request_id=self._next_request)
        )

    def set(
        self, key: str, value: Any, callback: Optional[Callable[[int], None]] = None
    ) -> None:
        self._next_request += 1
        if callback is not None:
            self._set_callbacks[self._next_request] = callback
        self.owner.send(
            self.registry_name,
            RegistrySet(key=key, value=value, request_id=self._next_request),
        )

    def watch(self, key: str, callback: Callable[[Any, int], None]) -> None:
        self._watch_callbacks[key] = callback
        self.owner.send(self.registry_name, RegistryWatch(key=key))

    def handle_registry_message(self, payload: Message) -> bool:
        """Returns True if the payload was a registry message."""
        if isinstance(payload, RegistryGetReply):
            callback = self._get_callbacks.pop(payload.request_id, None)
            if callback is not None:
                callback(payload.value, payload.version)
            return True
        if isinstance(payload, RegistrySetReply):
            callback = self._set_callbacks.pop(payload.request_id, None)
            if callback is not None:
                callback(payload.version)
            return True
        if isinstance(payload, WatchEvent):
            callback = self._watch_callbacks.get(payload.key)
            if callback is not None:
                callback(payload.value, payload.version)
            return True
        return False
