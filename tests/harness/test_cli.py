"""Unit tests for the CLI (parser wiring; experiments covered elsewhere)."""

import pytest

from repro.cli import build_parser


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


@pytest.mark.parametrize("command", ["fig3", "fig4", "fig5", "provisioning", "all"])
def test_all_commands_parse(command):
    args = build_parser().parse_args([command])
    assert args.command == command
    assert args.seed == 1


def test_fig3_flags():
    args = build_parser().parse_args(["fig3", "--duration", "30", "--prepare",
                                      "--seed", "9"])
    assert args.duration == 30.0
    assert args.prepare is True
    assert args.seed == 9


def test_fig5_no_prepare_flag():
    args = build_parser().parse_args(["fig5", "--no-prepare"])
    assert args.no_prepare is True


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig9"])


# -- observability subcommands ------------------------------------------------


def test_trace_command_parses():
    args = build_parser().parse_args(
        ["trace", "fig3", "--out", "t.jsonl", "--duration", "5",
         "--categories", "all", "--seed", "4"]
    )
    assert args.command == "trace"
    assert args.experiment == "fig3"
    assert args.out == "t.jsonl"
    assert args.duration == 5.0
    assert args.categories == "all"
    assert args.seed == 4


def test_trace_requires_known_experiment(capsys):
    # The positional also accepts file paths (for --follow), so the
    # experiment check lives in the handler, not the parser.
    from repro.cli import main

    assert main(["trace", "faults", "--out", "t.jsonl"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_trace_rejects_unknown_categories(tmp_path, capsys):
    from repro.cli import main

    code = main(["trace", "fig3", "--out", str(tmp_path / "t.jsonl"),
                 "--categories", "coord,frobnicate"])
    assert code == 2
    assert "unknown categories" in capsys.readouterr().err


def test_stats_and_validate_parse():
    args = build_parser().parse_args(["stats", "t.jsonl"])
    assert args.command == "stats" and args.trace == "t.jsonl"
    args = build_parser().parse_args(["validate-trace", "t.jsonl"])
    assert args.command == "validate-trace"


def test_validate_trace_exit_codes(tmp_path, capsys):
    from repro.cli import main

    good = tmp_path / "good.jsonl"
    good.write_text(
        '{"ts":0.0,"seq":0,"kind":"net.heal","cat":"net"}\n'
    )
    assert main(["validate-trace", str(good)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ts":0.0,"seq":0,"kind":"no.such.kind","cat":"x"}\n')
    assert main(["validate-trace", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_stats_reports_stage_table(tmp_path, capsys):
    import json

    from repro.cli import main

    events = [
        {"ts": 0.0, "seq": 0, "kind": "client.submit", "cat": "client",
         "client": "c", "stream": "S1", "msg_id": 1, "size": 8},
        {"ts": 0.1, "seq": 1, "kind": "coord.propose", "cat": "coord",
         "coordinator": "S1/coord", "stream": "S1", "type": "AppValue",
         "msg_id": 1},
        {"ts": 0.2, "seq": 2, "kind": "coord.phase2", "cat": "coord",
         "coordinator": "S1/coord", "stream": "S1", "instance": 0,
         "msg_ids": [1], "positions": [0]},
        {"ts": 0.3, "seq": 3, "kind": "coord.decide", "cat": "coord",
         "coordinator": "S1/coord", "stream": "S1", "instance": 0,
         "positions": [0]},
        {"ts": 0.4, "seq": 4, "kind": "learner.learned", "cat": "learner",
         "replica": "G1/r1", "stream": "S1", "instance": 0,
         "msg_ids": [1], "positions": [0]},
        {"ts": 0.5, "seq": 5, "kind": "replica.deliver", "cat": "replica",
         "replica": "G1/r1", "group": "G1", "stream": "S1",
         "position": 0, "msg_id": 1},
    ]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    assert main(["stats", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "complete lifecycles  : 1" in out
    assert "submit->deliver" in out
    assert "500.00" in out   # 0.5 s end-to-end rendered in ms


def test_stats_tells_a_trace_by_its_first_line(tmp_path, capsys, monkeypatch):
    # A trace is known by its first event: the whole-file parse a
    # metrics dump needs (json.load) never reads a trace.
    import json

    from repro.cli import main
    from repro.obs.metrics import METRICS_DUMP_FORMAT

    loaded = []
    whole = json.load

    def spy(fh, **kwargs):
        loaded.append(fh.name)
        return whole(fh, **kwargs)

    monkeypatch.setattr(json, "load", spy)
    trace = tmp_path / "n1.trace.jsonl"
    trace.write_text(json.dumps({"ts": 0.0, "seq": 0, "kind": "meta.node",
                                 "cat": "meta", "node": "n1"}) + "\n")
    assert main(["stats", str(trace)]) == 0
    assert loaded == []
    dump = tmp_path / "metrics.json"
    dump.write_text(json.dumps({
        "format": METRICS_DUMP_FORMAT, "gauges": [], "histograms": [],
        "counters": [{"actor": "r1", "name": "delivered", "total": 3}],
    }, indent=2))
    assert main(["stats", str(dump)]) == 0
    assert loaded == [str(dump)]
    assert "Metrics dump" in capsys.readouterr().out


# -- `all` routes through the real per-command parsers ------------------------


def test_all_reparses_each_experiment_and_propagates_failure(monkeypatch):
    import repro.cli as cli

    seen = {}

    def stub(name, code=None):
        def handler(args):
            # The sub-args came from the real parser: per-command
            # defaults (e.g. fig5's duration=70) must be present.
            seen[name] = args
            return code
        return handler

    monkeypatch.setitem(cli._DISPATCH, "fig3", stub("fig3"))
    monkeypatch.setitem(cli._DISPATCH, "fig4", stub("fig4", code=3))
    monkeypatch.setitem(cli._DISPATCH, "fig5", stub("fig5"))
    monkeypatch.setitem(cli._DISPATCH, "provisioning", stub("provisioning"))

    assert cli.main(["all", "--seed", "7"]) == 3
    assert set(seen) == {"fig3", "fig4", "fig5", "provisioning"}
    assert all(args.seed == 7 for args in seen.values())
    assert seen["fig3"].duration == 60.0
    assert seen["fig5"].duration == 70.0
    assert seen["fig5"].no_prepare is False
    assert seen["fig3"].prepare is False


def test_all_returns_zero_when_every_experiment_passes(monkeypatch):
    import repro.cli as cli

    for name in ("fig3", "fig4", "fig5", "provisioning"):
        monkeypatch.setitem(cli._DISPATCH, name, lambda args: None)
    assert cli.main(["all"]) == 0


def test_live_telemetry_flags_parse():
    args = build_parser().parse_args([
        "live", "--nodes", "2", "--telemetry-dir", "/tmp/t",
        "--clock-skew", "0.5",
    ])
    assert args.command == "live"
    assert args.nodes == 2
    assert args.telemetry_dir == "/tmp/t"
    assert args.clock_skew == 0.5
    defaults = build_parser().parse_args(["live"])
    assert defaults.nodes == 1 and defaults.telemetry_dir is None


def test_trace_merge_command(tmp_path, capsys):
    import json

    from repro.cli import main

    n1 = tmp_path / "n1.jsonl"
    n1.write_text(
        '{"ts":0.0,"seq":0,"kind":"meta.node","cat":"meta",'
        '"node":"n1","clock":"wall"}\n'
        '{"ts":1.0,"seq":1,"kind":"client.submit","cat":"client",'
        '"node":"n1","client":"c","stream":"s1","msg_id":3,"size":64}\n'
    )
    n2 = tmp_path / "n2.jsonl"
    n2.write_text(
        '{"ts":0.0,"seq":0,"kind":"meta.node","cat":"meta",'
        '"node":"n2","clock":"wall"}\n'
        '{"ts":1.5,"seq":1,"kind":"replica.deliver","cat":"replica",'
        '"node":"n2","replica":"r1","group":"g1","stream":"s1",'
        '"position":0,"msg_id":3}\n'
    )
    out = tmp_path / "merged.jsonl"
    assert main(["trace-merge", str(n1), str(n2), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "2 nodes" in printed
    assert "more than one node: 1" in printed
    merged = [json.loads(line) for line in out.read_text().splitlines()]
    assert merged[0]["kind"] == "meta.merge"
    assert main(["validate-trace", str(out)]) == 0


def test_top_accepts_directory_or_file(tmp_path):
    args = build_parser().parse_args(["top", str(tmp_path)])
    assert args.command == "top"
    assert args.interval == 1.0 and args.iterations is None
    assert args.timeout == 0.5       # per-node scrape bound: no hangs
    args = build_parser().parse_args([
        "top", "e.json", "--interval", "0.5", "--iterations", "3",
        "--no-clear", "--timeout", "0.2",
    ])
    assert args.interval == 0.5 and args.iterations == 3
    assert args.no_clear is True
    assert args.timeout == 0.2


# -- trace --follow / watch ---------------------------------------------------


def test_trace_follow_and_watch_flags_parse():
    args = build_parser().parse_args([
        "trace", "n1.trace.jsonl", "--follow", "--max-events", "5",
        "--idle-timeout", "2",
    ])
    assert args.follow is True
    assert args.max_events == 5 and args.idle_timeout == 2.0
    args = build_parser().parse_args([
        "watch", "run-dir", "--follow", "--out", "alerts.jsonl",
        "--fail-on-alert", "--stall-after", "1.5",
    ])
    assert args.command == "watch"
    assert args.follow is True and args.fail_on_alert is True
    assert args.out == "alerts.jsonl" and args.stall_after == 1.5


def test_trace_follow_tails_a_static_file(tmp_path, capsys):
    import json

    from repro.cli import main

    trace = tmp_path / "n1.trace.jsonl"
    lines = [
        '{"ts":0.0,"seq":0,"kind":"net.heal","cat":"net"}',
        '{"ts":1.0,"seq":1,"kind":"net.heal","cat":"net"}',
        '{"ts":2.0,"seq":2,"kind":"net.heal","cat":"net"}',
    ]
    trace.write_text("\n".join(lines) + "\n")
    # --max-events bounds the tail so a static file terminates.
    assert main(["trace", str(trace), "--follow", "--max-events", "2",
                 "--interval", "0.01"]) == 0
    captured = capsys.readouterr()
    emitted = [json.loads(line) for line in captured.out.splitlines()]
    assert [e["seq"] for e in emitted] == [0, 1]
    assert "2 events" in captured.err
    # --idle-timeout ends the tail once the file goes quiet.
    assert main(["trace", str(trace), "--follow", "--interval", "0.01",
                 "--idle-timeout", "0.05"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3


def test_trace_follow_missing_file_needs_idle_timeout(tmp_path, capsys):
    from repro.cli import main

    assert main(["trace", str(tmp_path / "nope.jsonl"), "--follow"]) == 2
    assert "no such trace file" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["fig3", "--duration", "0"], "duration must be > 0"),
    (["fig5", "--duration", "0"], "duration must be > 0"),
    (["fig4", "--duration", "5"], "split_at + inform_delay + 5"),
    (["fig3", "--duration", "0.001"], "no value completed a round trip"),
    (["fig5", "--duration", "0.001"], "no value completed a round trip"),
])
def test_figure_rejects_a_run_too_short_to_measure(capsys, argv, field):
    # A usage error, not a traceback from the measurement fold.
    from repro.cli import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
