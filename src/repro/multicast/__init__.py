"""Atomic multicast on composed Paxos streams, with dynamic subscriptions.

This package is the paper's contribution:

* :class:`StreamDeployment` / :class:`TokenLog` -- one stream = one
  Multi-Paxos sequence, viewed by replicas as a position-indexed token
  sequence (:mod:`repro.multicast.stream`);
* :class:`StaticMerger` -- the fixed-subscription deterministic merge
  of Multi-Ring Paxos (:mod:`repro.multicast.merge`);
* :class:`ElasticMerger` -- Algorithm 1: the dMerge with dynamic
  subscribe/unsubscribe (:mod:`repro.multicast.elastic`);
* :class:`MulticastReplica` -- learner tasks + dMerge on one host
  (:mod:`repro.multicast.replica`);
* :class:`MulticastClient` -- ``multicast``, ``subscribe_msg``,
  ``unsubscribe_msg``, ``prepare_msg`` (:mod:`repro.multicast.api`).
"""
