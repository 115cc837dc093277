"""Elastic Paxos: a dynamic atomic multicast protocol (ICDCS 2017).

A from-scratch reproduction of Benz & Pedone's Elastic Paxos on a
deterministic discrete-event simulator.  The package layers:

* :mod:`repro.sim` -- simulation kernel, network, capacity models;
* :mod:`repro.paxos` -- Multi-Paxos streams (coordinator, acceptors,
  learners, lambda/delta-t skips, ring dissemination, recovery);
* :mod:`repro.multicast` -- the paper's contribution: streams composed
  by a deterministic merge with **dynamic subscriptions** (Algorithm 1);
* :mod:`repro.coordination` -- ZooKeeper-style config registry;
* :mod:`repro.cloud` -- OpenStack-style VMs, anti-affinity, autoscaling;
* :mod:`repro.kvstore` -- the partitioned key/value store of section VI;
* :mod:`repro.baselines` -- static broadcast and reconfiguration
  baselines;
* :mod:`repro.harness` -- deployment builder and the experiments that
  regenerate Figures 3-5;
* :mod:`repro.runtime` / :mod:`repro.deploy` -- the live asyncio/TCP
  backend, in one process or one process per node.

No package ``__init__`` imports anything: a name is imported from the
module that defines it, so a process loads only the modules it uses (a
live node loads the protocol, not the simulator or the experiments).

Quickstart::

    from repro.harness.experiments.vertical import run_vertical
    result = run_vertical()
    print(result.interval_averages)   # the Fig. 3 staircase
"""
