"""Unit tests for the sans-io acceptor state machine."""

import pytest

from repro.paxos.acceptor import AcceptorCore
from repro.paxos.messages import (
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    RecoverRequest,
    RingAccept,
    Trim,
)
from repro.paxos.types import AppValue, Batch, SkipToken, WireBatch


def batch(tag):
    return Batch(tokens=(AppValue(payload=tag),))


def make_acceptor(name="a1", ring=("a1",)):
    return AcceptorCore(name, "S1", ring=ring)


def test_phase1a_promise_and_report_accepted():
    acceptor = make_acceptor()
    value = batch("x")
    acceptor.log.accept(3, 5, value)
    effects = acceptor.on_phase1a(Phase1a(stream="S1", ballot=7, from_instance=0), "c")
    assert len(effects) == 1
    dst, reply = effects[0]
    assert dst == "c"
    assert reply.ballot == 7
    assert reply.accepted == ((3, 5, value),)
    assert acceptor.promised == 7


def test_phase1a_stale_ballot_ignored():
    acceptor = make_acceptor()
    acceptor.on_phase1a(Phase1a(stream="S1", ballot=7, from_instance=0), "c")
    effects = acceptor.on_phase1a(Phase1a(stream="S1", ballot=5, from_instance=0), "c2")
    assert effects == []
    assert acceptor.promised == 7


def test_phase2a_accept_and_reply():
    acceptor = make_acceptor()
    effects = acceptor.on_phase2a(
        Phase2a(stream="S1", ballot=4, instance=0, batch=batch("v")), "c"
    )
    assert len(effects) == 1
    _dst, reply = effects[0]
    assert reply.instance == 0
    assert reply.acceptor == "a1"
    assert acceptor.log.get(0).vrnd == 4


def test_phase2a_below_promise_rejected():
    acceptor = make_acceptor()
    acceptor.on_phase1a(Phase1a(stream="S1", ballot=9, from_instance=0), "c")
    effects = acceptor.on_phase2a(
        Phase2a(stream="S1", ballot=4, instance=0, batch=batch("v")), "c"
    )
    assert effects == []
    assert acceptor.log.get(0) is None


def test_phase2a_at_promise_level_accepted():
    acceptor = make_acceptor()
    acceptor.on_phase1a(Phase1a(stream="S1", ballot=9, from_instance=0), "c")
    effects = acceptor.on_phase2a(
        Phase2a(stream="S1", ballot=9, instance=0, batch=batch("v")), "c"
    )
    assert len(effects) == 1


def test_ring_accept_middle_forwards_to_next():
    ring = ("a1", "a2", "a3")
    acceptor = AcceptorCore("a2", "S1", ring=ring)
    msg = RingAccept(stream="S1", ballot=0, instance=0, batch=batch("v"), accepted_by=1)
    effects = acceptor.on_ring_accept(msg, "a1")
    assert len(effects) == 1
    dst, forwarded = effects[0]
    assert dst == "a3"
    assert forwarded.accepted_by == 2


def test_ring_accept_last_decides():
    ring = ("a1", "a2", "a3")
    acceptor = AcceptorCore("a3", "S1", ring=ring)
    msg = RingAccept(stream="S1", ballot=0, instance=0, batch=batch("v"), accepted_by=2)
    effects = acceptor.on_ring_accept(msg, "a2")
    assert effects[0][0] == "__decided__"
    assert acceptor.log.is_decided(0)


def test_decision_marks_decided_for_recovery():
    acceptor = make_acceptor()
    value = batch("v")
    acceptor.on_decision(Decision(stream="S1", instance=2, batch=value), "c")
    assert acceptor.log.is_decided(2)
    assert acceptor.log.decided_value(2) == value


def test_recover_request_returns_decided_page():
    acceptor = make_acceptor()
    for i in range(5):
        acceptor.on_decision(Decision(stream="S1", instance=i, batch=batch(i)), "c")
    effects = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=0), "learner"
    )
    _dst, reply = effects[0]
    assert [i for i, _b in reply.decided] == [0, 1, 2, 3, 4]
    assert reply.highest_decided == 4


def test_recover_request_respects_range():
    acceptor = make_acceptor()
    for i in range(5):
        acceptor.on_decision(Decision(stream="S1", instance=i, batch=batch(i)), "c")
    effects = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=1, to_instance=3), "learner"
    )
    _dst, reply = effects[0]
    assert [i for i, _b in reply.decided] == [1, 2]


def test_recovery_is_paginated():
    from repro.paxos.acceptor import RECOVERY_PAGE_INSTANCES

    acceptor = make_acceptor()
    n = RECOVERY_PAGE_INSTANCES + 50
    for i in range(n):
        acceptor.on_decision(Decision(stream="S1", instance=i, batch=batch(i)), "c")
    effects = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=0), "learner"
    )
    _dst, reply = effects[0]
    assert len(reply.decided) == RECOVERY_PAGE_INSTANCES
    assert reply.highest_decided == n - 1


def test_trim_drops_decided_prefix():
    acceptor = make_acceptor()
    for i in range(5):
        acceptor.on_decision(Decision(stream="S1", instance=i, batch=batch(i)), "c")
    acceptor.on_trim(Trim(stream="S1", below=3), "c")
    assert acceptor.log.trimmed_below == 3
    effects = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=0), "learner"
    )
    _dst, reply = effects[0]
    assert [i for i, _b in reply.decided] == [3, 4]


def test_trim_stops_at_undecided_instance():
    acceptor = make_acceptor()
    acceptor.on_decision(Decision(stream="S1", instance=0, batch=batch(0)), "c")
    acceptor.log.accept(1, 0, batch("pending"))  # accepted but not decided
    acceptor.on_decision(Decision(stream="S1", instance=2, batch=batch(2)), "c")
    acceptor.on_trim(Trim(stream="S1", below=3), "c")
    # Only the decided prefix [0] may go; instance 1 must survive.
    assert acceptor.log.trimmed_below == 1
    assert acceptor.log.get(1) is not None


def test_recovery_reports_no_highest_decided_once_trim_drops_them_all():
    acceptor = make_acceptor()
    for i in range(3):
        acceptor.on_decision(Decision(stream="S1", instance=i, batch=batch(i)), "c")
    acceptor.log.accept(3, 0, batch("pending"))
    acceptor.on_trim(Trim(stream="S1", below=2), "c")
    (_dst, reply), = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=0), "learner"
    )
    assert reply.highest_decided == 2
    acceptor.on_trim(Trim(stream="S1", below=9), "c")
    assert acceptor.log.trimmed_below == 3
    (_dst, reply), = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=0), "learner"
    )
    assert reply.decided == ()
    assert reply.trimmed_below == 3
    assert reply.highest_decided == -1


def _count_log_reads(monkeypatch, log) -> list:
    reads: list = []
    for name in ("is_decided", "decided_value", "decided_instances",
                 "get", "entry"):
        def spy(*args, _read=getattr(log, name), _name=name):
            reads.append(_name)
            return _read(*args)
        monkeypatch.setattr(log, name, spy)
    return reads


def test_recovery_and_trim_read_a_page_not_the_log(monkeypatch):
    from repro.paxos.acceptor import RECOVERY_PAGE_INSTANCES as PAGE

    acceptor = make_acceptor()
    value = batch("v")
    for i in range(100_000):
        acceptor.on_decision(Decision(stream="S1", instance=i, batch=value), "c")
    reads = _count_log_reads(monkeypatch, acceptor.log)

    (_dst, reply), = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=5_000), "learner"
    )
    assert [i for i, _b in reply.decided] == list(range(5_000, 5_000 + PAGE))
    assert reply.highest_decided == 99_999
    assert sorted(set(reads)) == ["decided_value", "is_decided"]
    assert reads.count("is_decided") == reads.count("decided_value") == PAGE

    reads.clear()
    acceptor.on_trim(Trim(stream="S1", below=PAGE), "c")
    assert acceptor.log.trimmed_below == PAGE
    assert "decided_instances" not in reads
    assert len(reads) <= 2 * PAGE + 1


def test_phase1b_after_a_trim_scans_from_the_horizon(monkeypatch):
    acceptor = make_acceptor()
    for i in range(10_000):
        acceptor.on_decision(Decision(stream="S1", instance=i, batch=batch(i)), "c")
    open_ = batch("open")
    acceptor.on_phase2a(Phase2a("S1", 4, 10_000, open_), "c")
    acceptor.on_trim(Trim(stream="S1", below=9_990), "c")
    reads = _count_log_reads(monkeypatch, acceptor.log)

    (_dst, reply), = acceptor.on_phase1a(
        Phase1a(stream="S1", ballot=7, from_instance=0), "c2"
    )
    assert [(i, vrnd) for i, vrnd, _b in reply.accepted] == (
        [(i, 0) for i in range(9_990, 10_000)] + [(10_000, 4)]
    )
    assert reply.accepted[-1][2] is open_
    # One probe per kept instance: the trimmed 9,990 are not walked.
    assert reads == ["get"] * 11


# -- wire-backed batches in the log (live backend) ----------------------
#
# On the live backend every batch an acceptor sees was decoded from a
# frame, so its log holds serialised tokens.  Accepting, forwarding,
# promising, recovery and trimming must work off the batch header and
# the bytes alone.

def _over_the_wire(message):
    from repro.runtime import codec

    return codec.decode(codec.encode(message))


@pytest.fixture
def no_token_parse(monkeypatch):
    from repro.runtime import codec

    def refuse(wire, count):
        raise AssertionError("an acceptor parsed a batch's tokens")

    monkeypatch.setattr(codec, "decode_batch_tokens", refuse)


def _mixed(tag):
    return Batch(tokens=(AppValue(payload=tag, size=40), SkipToken(7)))


def test_wire_backed_ring_accept_is_logged_and_forwarded_unparsed(
    no_token_parse,
):
    acceptor = AcceptorCore("a2", "S1", ring=("a1", "a2", "a3"))
    msg = _over_the_wire(RingAccept("S1", 0, 0, _mixed("v"), accepted_by=1))
    assert type(msg.batch) is WireBatch
    (dst, forwarded), = acceptor.on_ring_accept(msg, "a1")
    assert dst == "a3"
    assert forwarded.batch is msg.batch
    assert forwarded.wire_size() == msg.wire_size()
    assert acceptor.log.get(0).value is msg.batch
    # Forwarding re-encodes the held bytes.
    assert type(_over_the_wire(forwarded).batch) is WireBatch


def test_phase1b_reports_wire_backed_batches_unparsed(no_token_parse):
    acceptor = make_acceptor()
    originals = {i: _mixed(i) for i in range(3)}
    for i, original in originals.items():
        acceptor.on_phase2a(
            _over_the_wire(Phase2a("S1", 4, i, original)), "c"
        )
    (_dst, reply), = acceptor.on_phase1a(
        Phase1a(stream="S1", ballot=7, from_instance=1), "c2"
    )
    assert [(i, vrnd) for i, vrnd, _b in reply.accepted] == [(1, 4), (2, 4)]
    assert reply.wire_size() == Phase1b(
        stream="S1", ballot=7, acceptor="a1",
        accepted=tuple((i, 4, originals[i]) for i in (1, 2)),
    ).wire_size()
    received = _over_the_wire(reply)
    assert all(type(b) is WireBatch for _i, _r, b in received.accepted)


def test_phase1b_batches_parse_back_to_the_originals_at_the_coordinator():
    acceptor = make_acceptor()
    original = _mixed("x")
    acceptor.on_phase2a(_over_the_wire(Phase2a("S1", 4, 0, original)), "c")
    (_dst, reply), = acceptor.on_phase1a(
        Phase1a(stream="S1", ballot=7, from_instance=0), "c2"
    )
    ((_i, _vrnd, reported),) = _over_the_wire(reply).accepted
    assert reported == original
    assert reported.tokens == original.tokens


def test_recovery_serves_wire_backed_batches_unparsed(no_token_parse):
    acceptor = make_acceptor()
    for i in range(4):
        acceptor.on_decision(
            _over_the_wire(Decision("S1", i, _mixed(i))), "c"
        )
    (_dst, reply), = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=1), "learner"
    )
    assert [i for i, _b in reply.decided] == [1, 2, 3]
    assert reply.wire_size() > 0
    received = _over_the_wire(reply)
    assert [b.positions() for _i, b in received.decided] == [8, 8, 8]


def test_trim_counts_positions_of_wire_backed_batches_unparsed(
    no_token_parse,
):
    acceptor = make_acceptor()
    for i in range(4):
        acceptor.on_decision(
            _over_the_wire(Decision("S1", i, _mixed(i))), "c"
        )
    acceptor.on_trim(Trim(stream="S1", below=3), "c")
    assert acceptor.log.trimmed_below == 3
    assert acceptor.positions_trimmed == 3 * 8     # 1 value + 7 skipped each
    (_dst, reply), = acceptor.on_recover_request(
        RecoverRequest(stream="S1", from_instance=0), "learner"
    )
    assert reply.base_position == 24
    assert [i for i, _b in reply.decided] == [3]
