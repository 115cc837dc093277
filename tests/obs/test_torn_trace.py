"""Torn traces and clock estimation: what kill -9 leaves behind.

A worker killed with SIGKILL dies with its trace sink's write buffer
in an arbitrary state: the file legitimately ends in half a JSON line.
The merge pipeline must salvage every complete event before the tear
instead of crashing -- strict reads stay strict (a torn line is a real
error for anything but the merge tool, which `repro stats` and `repro
latency` report as a usage error that points at it).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.merge import merge_files, read_trace, trace_offsets
from repro.runtime.telemetry import estimate_offset


def _lines(node: str, count: int = 3) -> list[str]:
    events = [
        {"ts": 0.0, "kind": "meta.node", "cat": "meta", "node": node},
        {"ts": 0.0, "kind": "meta.clock", "cat": "meta", "node": node,
         "ref": "n1", "offset": 0.25 if node != "n1" else 0.0, "rtt": 0.001},
    ]
    events += [
        {"ts": 0.1 * i, "kind": "client.submit", "cat": "client",
         "node": node, "msg_id": i}
        for i in range(1, count + 1)
    ]
    return [json.dumps(event) for event in events]


def test_read_trace_strict_raises_on_torn_tail():
    torn = "\n".join(_lines("n1")) + '\n{"ts": 0.9, "kind": "client.su'
    with pytest.raises(json.JSONDecodeError):
        read_trace(io.StringIO(torn))


def test_read_trace_skip_malformed_salvages_complete_events():
    complete = _lines("n1")
    torn = "\n".join(complete) + '\n{"ts": 0.9, "kind": "client.su'
    events = read_trace(io.StringIO(torn), skip_malformed=True)
    assert len(events) == len(complete)
    assert events[-1]["msg_id"] == 3
    # Torn tails that still parse as JSON scalars are not events either.
    weird = "\n".join(complete) + "\n42\n"
    assert len(read_trace(io.StringIO(weird), skip_malformed=True)) == len(
        complete
    )


def test_merge_files_tolerates_killed_nodes_trace(tmp_path):
    healthy = tmp_path / "n1.trace.jsonl"
    healthy.write_text("\n".join(_lines("n1")) + "\n", encoding="utf-8")
    killed = tmp_path / "n2.trace.jsonl"
    # The kill -9 case: a flushed prefix, then the tear mid-line.
    killed.write_text(
        "\n".join(_lines("n2")) + '\n{"ts": 0.35, "kind": "replica.del',
        encoding="utf-8",
    )
    out = tmp_path / "merged.trace.jsonl"
    merged = merge_files([str(healthy), str(killed)], out=str(out))
    nodes = {event.get("node") for event in merged}
    assert {"n1", "n2"} <= nodes
    # Every complete n2 event survived; the torn one is gone.
    n2_events = [e for e in merged if e.get("node") == "n2"]
    assert len(n2_events) == len(_lines("n2"))
    assert all(e.get("kind") != "replica.del" for e in n2_events)
    # The killed node's surviving meta.clock still aligned its domain:
    # its events were shifted back by the recorded +0.25 s offset.
    submits = {
        (e["node"], e["msg_id"]): e["ts"]
        for e in merged if e["kind"] == "client.submit"
    }
    assert submits[("n2", 1)] == pytest.approx(
        submits[("n1", 1)] - 0.25, abs=1e-9
    )
    # And the output file is itself a clean, strict-readable trace.
    assert len(read_trace(str(out))) == len(merged)


@pytest.mark.parametrize("command", ["stats", "latency"])
def test_cli_readers_refuse_a_torn_trace_and_name_the_merge_tool(
    command, tmp_path, capsys
):
    from repro.cli import main

    torn = tmp_path / "n2.trace.jsonl"
    torn.write_text(
        "\n".join(_lines("n2")) + '\n{"ts": 0.35, "kind": "replica.del',
        encoding="utf-8",
    )
    assert main([command, str(torn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {torn}: ")
    assert "python -m repro trace-merge" in err


def test_trace_offsets_last_mark_wins():
    events = _lines("n2")
    events.append(json.dumps(
        {"ts": 2.0, "kind": "meta.clock", "cat": "meta", "node": "n2",
         "ref": "n1", "offset": 0.65, "rtt": 0.001}
    ))
    traces = {"n2": read_trace(io.StringIO("\n".join(events)))}
    assert trace_offsets(traces)["n2"] == pytest.approx(0.65)


def test_estimate_offset_picks_min_rtt_sample():
    # Three round trips; the middle one has the least queueing noise.
    samples = [
        (10.0, 15.5, 10.4),    # rtt 0.4
        (11.0, 15.3 + 1.05, 11.1),   # rtt 0.1 -> offset vs midpoint
        (12.0, 17.8, 12.6),    # rtt 0.6
    ]
    offset, rtt = estimate_offset(samples)
    assert rtt == pytest.approx(0.1)
    assert offset == pytest.approx(15.3 + 1.05 - 11.05)


def test_estimate_offset_requires_samples():
    with pytest.raises(ValueError):
        estimate_offset([])
