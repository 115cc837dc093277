"""Deterministic discrete-event simulation substrate.

Public surface (the CPU/disk capacity model the simulated hosts use,
:class:`Server`, is kernel-generic and lives in
:mod:`repro.runtime.resources`):

* :class:`Environment` -- virtual time and a calendar of deferred calls
  (:mod:`repro.sim.core`);
* :class:`Store` -- an actor's inbox, drained by its mailbox
  (:mod:`repro.sim.queues`);
* :class:`Network`, :class:`Host`, :class:`LinkSpec` -- the
  message-passing fabric (:mod:`repro.sim.network`), carrying
  :class:`repro.runtime.kernel.Envelope` s;
* :class:`RngRegistry` -- named seeded RNG streams (:mod:`repro.sim.rng`).
"""
