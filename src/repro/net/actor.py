"""Actor base class: a protocol role bound to a transport host.

An :class:`Actor` drains its host's inbox through a mailbox and
dispatches each payload to ``on_<MessageClassName>`` methods, e.g. a
``Phase1a`` payload is dispatched to ``on_phase1a(msg, src)``.  Unknown
message types raise -- a replica silently ignoring a message it should
handle is a bug, not a feature.

Every message reaches an actor through :meth:`Actor.dispatch`.  The
mailbox (``inbox.consume``, :class:`repro.runtime.kernel.InboxLike`)
calls it per envelope on both backends -- through :meth:`Actor.receive`,
which emits ``actor.dispatch`` first, when a dispatch tracer is
installed; a transport that already runs on the actor's thread (the
live TCP transport, in its receive callback) calls :meth:`Actor.receive`
directly while the mailbox is parked on an empty inbox, and reports a
handler that raised through :meth:`Actor.abort`.

Actors code against the :class:`repro.runtime.kernel.Kernel` and
:class:`repro.runtime.kernel.Transport` interfaces only; the same actor
runs unchanged on the discrete-event simulator and on the live asyncio
TCP backend.

Actors respect crash state: while the underlying host is crashed the
mailbox is stopped, and :meth:`Actor.send` drops outgoing traffic,
mirroring a dead process.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from ..runtime.kernel import Kernel, MailboxHandle, Transport
from .messages import Message

__all__ = ["Actor"]

_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


def _handler_name(payload: Any) -> str:
    return "on_" + _CAMEL_RE.sub("_", type(payload).__name__).lower()


class Actor:
    """A named protocol participant attached to a transport host."""

    def __init__(self, env: Kernel, network: Transport, name: str):
        self.env = env
        self.network = network
        self.name = name
        self.host = network.add_host(name)
        # Back-reference so fault injectors that only know host names
        # can crash the *process* (stop the mailbox, halt timers), not
        # just the box -- crashing only the host would leave the
        # mailbox parked on the replaced inbox forever.
        self.host.actor = self
        self._mailbox: Optional[MailboxHandle] = None
        # env.tracer is fixed for the environment's lifetime, so the
        # per-message guard is resolved once.
        tracer = env.tracer
        self._dispatch_tracer = (
            tracer if tracer is not None and tracer.wants_dispatch else None
        )
        # Per-message-class handler methods, resolved lazily: the regex
        # camel-case split and getattr are too slow for the dispatch
        # hot path.
        self._handler_cache: dict[type, Any] = {}

    # -- lifecycle ------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the mailbox is active."""
        return self._mailbox is not None and self._mailbox.is_alive

    def start(self) -> None:
        """Begin draining the inbox."""
        if self.running:
            raise RuntimeError(f"{self.name} already started")
        # Without a dispatch tracer :meth:`receive` adds only a frame:
        # the mailbox calls :meth:`dispatch` itself.
        receive = (
            self.dispatch if self._dispatch_tracer is None else self.receive
        )
        self._mailbox = self.host.inbox.consume(receive, self.name)

    def stop(self) -> None:
        """Stop the mailbox (without crashing the host)."""
        if self._mailbox is not None and self._mailbox.is_alive:
            self._mailbox.interrupt("stop")
        self._mailbox = None

    def crash(self) -> None:
        """Crash the actor's host and stop its mailbox."""
        self.host.crash()
        self.stop()
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("actor.crash", self.env._now, name=self.name)

    def recover(self) -> None:
        """Restart after a crash; volatile state must be rebuilt by the
        subclass (override and call ``super().recover()``)."""
        self.host.recover()
        self.start()
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("actor.recover", self.env._now, name=self.name)

    @property
    def crashed(self) -> bool:
        return self.host.crashed

    # -- messaging ------------------------------------------------------

    def send(self, dst: str, payload: Message) -> None:
        """Send ``payload`` to the actor named ``dst``."""
        if self.host.crashed:
            return
        self.network.send(self.name, dst, payload, payload.wire_size())

    def send_all(self, dsts: list[str], payload: Message) -> None:
        if self.host.crashed:
            return
        # One wire-size computation -- and, on a transport that
        # serialises, one encode -- for the whole fan-out.
        self.network.broadcast(self.name, dsts, payload, payload.wire_size())

    # -- dispatch ------------------------------------------------------

    def receive(self, payload: Any, src: str) -> None:
        """Handle one received message: :meth:`dispatch`, traced.  The
        entry point of a transport that dispatches in its own receive
        callback, and of the mailbox when a dispatch tracer is
        installed."""
        tracer = self._dispatch_tracer
        if tracer is not None:
            tracer.emit(
                "actor.dispatch", self.env._now, name=self.name, src=src,
                type=type(payload).__name__,
            )
        self.dispatch(payload, src)

    def abort(self, failure: Exception) -> None:
        """A handler raised outside the mailbox (a transport called
        :meth:`receive` directly): what the mailbox ending on
        ``failure`` would have meant.  The mailbox stops -- it alone,
        whatever else a subclass runs carries on -- and the kernel
        records the failure (``AsyncioKernel.fail``: the live TCP
        transport is the one caller)."""
        Actor.stop(self)
        self.env.fail(failure)

    def dispatch(self, payload: Any, src: str) -> None:
        """Route ``payload`` to the matching ``on_*`` handler."""
        cls = type(payload)
        handler = self._handler_cache.get(cls)
        if handler is None:
            handler = getattr(self, _handler_name(payload), None)
            if handler is None:
                raise NotImplementedError(
                    f"{type(self).__name__} {self.name!r} has no handler "
                    f"{_handler_name(payload)!r} for {payload!r}"
                )
            self._handler_cache[cls] = handler
        handler(payload, src)
