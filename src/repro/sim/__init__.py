"""Deterministic discrete-event simulation substrate.

Public surface:

* :class:`Environment` -- virtual time and a calendar of deferred calls
  (:mod:`repro.sim.core`);
* :class:`Store` -- an actor's inbox, drained by its mailbox
  (:mod:`repro.sim.queues`);
* :class:`Network`, :class:`Host`, :class:`LinkSpec`, :class:`Envelope`
  -- the message-passing fabric (:mod:`repro.sim.network`);
* :class:`Server` -- CPU/disk capacity model (:mod:`repro.sim.resources`);
* :class:`RngRegistry` -- named seeded RNG streams (:mod:`repro.sim.rng`).
"""

from .core import Environment, SimulationError
from .network import Envelope, Host, LinkSpec, Network
from .queues import QueueFull, Store
from .resources import Server
from .rng import RngRegistry

__all__ = [
    "Envelope",
    "Environment",
    "Host",
    "LinkSpec",
    "Network",
    "QueueFull",
    "RngRegistry",
    "Server",
    "SimulationError",
    "Store",
]
