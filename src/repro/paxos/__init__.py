"""Multi-Paxos substrate: one package per stream role.

A *stream* is one Multi-Paxos sequence (coordinator + acceptors),
the unit Elastic Paxos composes.  See :mod:`repro.multicast` for the
stream/merge layer built on top.
"""
