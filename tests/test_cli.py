"""The ``repro`` CLI end to end: obs actions, top, gateway, argument checks.

Each ``obs`` call runs the built-in demo workload (about a second)
unless ``--no-demo``, exactly as CI's smoke steps do.
"""

import argparse
import json
import time

import pytest

import repro.persist
from repro import obs
from repro.cli import build_parser, main
from repro.gateway import GatewayConfig, GatewayServer, GatewayThread
from repro.serve import ServeConfig, SessionManager, SocketLoadGenerator
from repro.students import cohort_scripts

SUBCOMMANDS = (
    "demo", "validate", "solve", "figures", "compare", "obs", "top",
    "gateway", "wal", "chaos", "repl", "cluster",
)


@pytest.fixture(autouse=True)
def _restore_obs():
    """The CLI enables obs process-wide; leave it as it was found."""
    was = obs.enabled()
    yield
    obs.reset()
    obs.set_enabled(was)


def _exit_code(argv):
    """``main``'s return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _event_names(out):
    """The event column of ``obs tail`` lines (stamp, level, logger, event)."""
    return [line.split()[3] for line in out.splitlines()]


def _jsonl_log(tmp_path):
    """Four JSONL events (e0..e3) with a torn write after the second."""
    events = [
        {"ts": 1.0 + i, "level": level, "logger": "serve",
         "event": f"e{i}", "fields": {}}
        for i, level in enumerate(("info", "warning", "info", "error"))
    ]
    lines = [json.dumps(e) for e in events]
    log = tmp_path / "events.jsonl"
    log.write_text("\n".join(
        lines[:2] + ['{"ts": 9.0, "level": "inf'] + lines[2:]
    ) + "\n")
    return log


class TestObs:
    def test_export_prometheus_then_json_to_files(self, tmp_path, capsys):
        prom, doc = tmp_path / "snap.prom", tmp_path / "snap.json"
        assert main(["obs", "export", "-o", str(prom)]) == 0
        assert f"wrote prometheus snapshot to {prom}" in capsys.readouterr().out
        text = prom.read_text()
        assert "# TYPE repro_serve_completed_total counter" in text
        assert 'repro_persist_commit_seconds_bucket{le="+Inf"' in text

        # the same registry as JSON: no second demo run
        assert main(["obs", "export", "--format", "json", "--no-demo",
                     "-o", str(doc)]) == 0
        assert f"wrote json snapshot to {doc}" in capsys.readouterr().out
        names = {m["name"] for m in json.loads(doc.read_text())["metrics"]}
        assert {line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE")} <= names

    def test_export_to_an_unwritable_path_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "snap.prom"
        assert main(["obs", "export", "--no-demo", "-o", str(out)]) == 1
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_flight_and_tail(self, tmp_path, capsys):
        assert main(["obs", "tail", "-n", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

        dump = tmp_path / "flight.json"
        assert main(["obs", "flight", "--no-demo", "-o", str(dump)]) == 0
        assert f"wrote flight dump to {dump}" in capsys.readouterr().out
        payload = json.loads(dump.read_text())
        assert payload["reason"] == "cli" and payload["events"]

    def test_tail_file_skips_a_torn_line(self, tmp_path, capsys):
        log = _jsonl_log(tmp_path)

        def tail(*extra):
            assert main(["obs", "tail", "--file", str(log), *extra]) == 0
            return _event_names(capsys.readouterr().out)

        assert tail() == ["e0", "e1", "e2", "e3"]
        assert tail("-n", "2") == ["e2", "e3"]
        assert tail("--level", "warning") == ["e1", "e3"]

    def test_tail_zero_lines_prints_nothing(self, tmp_path, capsys):
        assert main(["obs", "tail", "-n", "0"]) == 0
        assert capsys.readouterr().out == ""
        log = _jsonl_log(tmp_path)
        assert main(["obs", "tail", "--file", str(log), "-n", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_tail_follow_joins_a_line_written_in_two_pieces(
        self, tmp_path, capsys, monkeypatch
    ):
        log = tmp_path / "events.jsonl"
        log.write_text("")
        line = json.dumps({"ts": 1.0, "level": "info", "logger": "serve",
                           "event": "split", "fields": {}})
        pieces = [line[:20], line[20:] + "\n"]

        def poll(_seconds):  # each idle poll appends the next piece
            if not pieces:
                raise KeyboardInterrupt
            with log.open("a") as fh:
                fh.write(pieces.pop(0))

        monkeypatch.setattr(time, "sleep", poll)
        assert main(["obs", "tail", "--file", str(log), "-f"]) == 0
        assert _event_names(capsys.readouterr().out) == ["split"]

    def test_tail_of_a_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["obs", "tail", "--file", str(tmp_path / "no.jsonl")]) == 1
        assert "error: cannot read" in capsys.readouterr().err

    def test_trace_waterfall_of_a_durable_demo_request(
        self, tmp_path, capsys, monkeypatch
    ):
        ended = []
        recover = repro.persist.recover_shard

        def counting(shard_dir, game, **kwargs):
            report = recover(shard_dir, game, **kwargs)
            ended.append(report.ended_sessions)
            return report

        monkeypatch.setattr(repro.persist, "recover_shard", counting)
        out = tmp_path / "waterfall.txt"
        assert main(["obs", "trace", "-o", str(out)]) == 0
        assert f"wrote trace waterfall to {out}" in capsys.readouterr().out
        text = out.read_text()
        for name in ("shard.admit", "engine.dispatch", "fsync_wait"):
            assert name in text, name
        # the traced burst is the persisted one: recovery finds the END
        # of every traced session in the WAL
        assert sum(ended) == len(obs.get_tracer().finished_ids()) > 0


def test_trace_from_a_live_gateway(classroom_game, capsys):
    obs.enable()
    manager = SessionManager(ServeConfig(
        n_shards=1, tick_interval_s=0.002, max_steps_per_tick=50,
    ))
    server = GatewayServer(manager, classroom_game, config=GatewayConfig(
        telemetry_port=0, trace_sample=1.0,
    ))
    with GatewayThread(server) as gw:
        url = f"127.0.0.1:{gw.telemetry_port}"
        assert main(["obs", "trace", "--url", url]) == 1
        assert "no finished traces" in capsys.readouterr().err

        scripts = cohort_scripts(classroom_game, 2, seed=3)
        SocketLoadGenerator(gw.host, gw.port, scripts).run(2, timeout=30.0)
        assert main(["obs", "trace", "--url", url]) == 0
        assert "shard_step" in capsys.readouterr().out
        assert main(["obs", "trace", "no-such-id", "--url", url]) == 1
        assert "cannot fetch a trace" in capsys.readouterr().err


def test_top_renders_one_frame(capsys):
    assert main(["top", "--iterations", "1"]) == 0
    assert "repro top - VGBL runtime observability" in capsys.readouterr().out


def test_top_single_frame_waits_for_the_demo(capsys):
    assert main(["top", "--iterations", "1", "--width", "120"]) == 0
    out = capsys.readouterr().out
    assert "(no metrics)" not in out and "(no spans)" not in out


def test_top_shows_the_busiest_series(capsys):
    """The Metrics panel ranks rows by size, not by name, so the demo's
    serve burst shows up in the one frame."""
    assert main(["top", "--iterations", "1", "--width", "140"]) == 0
    panel = capsys.readouterr().out.split("Metrics", 1)[1].split("Spans", 1)[0]
    names = [row.split("|")[1].strip() for row in panel.splitlines()
             if row.startswith("| repro_")]
    assert any(n.startswith(("repro_serve_", "repro_persist_")) for n in names)


def test_gateway_serves_for_a_duration(capsys):
    assert main([
        "gateway", "serve", "--port", "0", "--telemetry-port", "0",
        "--trace-sample", "1.0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "gateway listening on 127.0.0.1:" in out
    assert "telemetry on http://127.0.0.1:" in out


def test_every_subcommand_is_listed():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("argv", [[]] + [[c] for c in SUBCOMMANDS])
def test_help_exits_zero(argv, capsys):
    assert _exit_code(argv + ["--help"]) == 0
    assert "usage: repro" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gateway", "serve", "--tick-hz", "0"],
    ["gateway", "serve", "--shards", "0"],
    ["gateway", "serve", "--trace-sample", "1.5"],
    ["chaos", "--sessions", "0"],
    ["chaos", "--shards", "0"],
    ["chaos", "--wait", "0"],
    ["chaos", "--plan", "no-such-plan"],
    ["cluster", "serve", "ROOT", "--shards", "0"],
    ["cluster", "serve", "ROOT", "--standbys", "0"],
    ["cluster", "serve", "ROOT", "--quorum", "-1"],
    ["cluster", "serve", "ROOT", "--standbys", "2", "--quorum", "3"],
    ["top", "--interval", "0"],
    ["top", "--iterations", "0"],
    ["obs", "tail", "--no-demo", "--level", "loud"],
    ["obs", "tail", "--no-demo", "--follow"],
    ["obs", "check", "--no-demo"],
])
def test_bad_arguments_exit_2(argv, tmp_path, capsys):
    argv = [str(tmp_path / "root") if a == "ROOT" else a for a in argv]
    assert _exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("argv", [
    ["obs", "dump"], ["obs", "reset"], ["top", "--once"],
])
def test_duplicate_actions_are_gone(argv, capsys):
    assert _exit_code(argv) == 2
