"""Tests for the CLI, PPM export and the scenario funnel."""

import pytest

from repro.cli import main
from repro.core import save_project
from repro.learning import scenario_funnel
from repro.reporting import read_ppm, write_ppm
from repro.runtime import MouseClick, SessionRecorder
from repro.video import Frame, FrameSize


def _inspect_rows(out):
    """``repro wal inspect`` table rows keyed by shard, cells by column."""
    lines = [line for line in out.splitlines() if "|" in line]
    header = [cell.strip() for cell in lines[0].split("|")]
    rows = [dict(zip(header, (c.strip() for c in line.split("|"))))
            for line in lines[1:]]
    return {row["shard"]: row for row in rows}


class TestPpm:
    def test_roundtrip(self, tmp_path):
        frame = Frame.from_gradient(FrameSize(17, 11), (10, 200, 30), (200, 10, 230))
        path = tmp_path / "img.ppm"
        nbytes = write_ppm(frame, path)
        assert path.stat().st_size == nbytes
        assert read_ppm(path) == frame

    def test_header_format(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(Frame.blank(FrameSize(3, 2)), path)
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_read_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_read_skips_comments(self, tmp_path):
        frame = Frame.blank(FrameSize(2, 2), (9, 8, 7))
        path = tmp_path / "c.ppm"
        data = b"P6\n# a comment\n2 2\n255\n" + frame.tobytes()
        path.write_bytes(data)
        assert read_ppm(path) == frame

    def test_read_rejects_bad_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_ppm(path)


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "winnable=True" in out
        assert "walkthrough:" in out
        assert "Interactive VGBL Player" in out

    def test_validate_ok(self, tmp_path, classroom_wizard, capsys):
        save_project(classroom_wizard.project, tmp_path)
        assert main(["validate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert "winnable: True" in out

    def test_validate_failing_project(self, tmp_path, capsys):
        from repro.core import GameProject, ScenarioEditor
        from repro.core.templates import scene_footage
        from repro.video import FrameSize

        project = GameProject("Broken")
        editor = ScenarioEditor(project)
        editor.import_footage("c", scene_footage(FrameSize(48, 36), 1, duration=4))
        editor.commit_whole("c")
        editor.create_scenario("room", "Room", "c")
        save_project(project, tmp_path)
        assert main(["validate", str(tmp_path)]) == 1
        assert "unwinnable" in capsys.readouterr().out

    def test_solve(self, tmp_path, classroom_wizard, capsys):
        save_project(classroom_wizard.project, tmp_path)
        assert main(["solve", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "winnable in 4 moves" in out
        assert "use ram on computer" in out

    def test_solve_bounded_inconclusive(self, tmp_path, classroom_wizard, capsys):
        save_project(classroom_wizard.project, tmp_path)
        assert main(["solve", str(tmp_path), "--max-states", "1"]) == 2

    def test_figures(self, tmp_path, classroom_wizard, capsys):
        proj = tmp_path / "proj"
        out = tmp_path / "figs"
        save_project(classroom_wizard.project, proj)
        assert main(["figures", str(proj), str(out)]) == 0
        assert (out / "fig1_authoring_tool.txt").exists()
        sheet = read_ppm(out / "storyboard.ppm")
        assert sheet.width > 0

    def test_compare(self, capsys):
        assert main(["compare", "--students", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "vgbl" in out and "slideshow" in out

    def test_wal_inspect_recover_compact(self, tmp_path, capsys):
        """End-to-end over real journals: log sessions with the built-in
        demo game, tear the tail, then drive all three wal actions."""
        from repro.core import fetch_quest_game
        from repro.persist import (
            Journal,
            PersistenceConfig,
            input_record,
            start_record,
        )
        from repro.students import cohort_scripts

        game = fetch_quest_game(n_quests=2, title="wal-recover").build()
        scripts = cohort_scripts(game, 2, seed=13)
        shard_dir = tmp_path / "shard-00"
        journal = Journal(shard_dir, PersistenceConfig(directory=tmp_path))
        for script in scripts:
            journal.append(
                start_record(script.player_id, script.dt, script.ops)
            )
            for op in script.ops[:3]:
                journal.append(input_record(script.player_id, op))
        journal.sync(timeout=5.0)
        journal.close()
        segment = sorted(shard_dir.glob("wal-*.log"))[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\x22\x00\x00\x00 torn")

        assert main(["wal", "inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shard-00" in out and "torn" in out
        row = _inspect_rows(out)["shard-00"]
        assert (row["start"], row["input"], row["progress"], row["end"]) == (
            "2", "6", "0", "0"
        )

        assert main(["wal", "recover", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "digest" in out

        assert main(["wal", "compact", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "watermark" in out

    def test_wal_inspect_counts_record_kinds(self, tmp_path, capsys,
                                             classroom_game):
        """The kind columns tell an old one-input-per-step journal from
        a current cursor-logged one."""
        from pathlib import Path

        from repro.persist import PersistenceConfig
        from repro.serve import (
            ServeConfig,
            SessionManager,
            session_factory_for_script,
        )
        from repro.students import cohort_scripts

        old = Path(__file__).parent / "data" / "wal_v1"
        assert main(["wal", "inspect", str(old)]) == 0
        row = _inspect_rows(capsys.readouterr().out)["shard-00"]
        assert (row["start"], row["input"], row["progress"], row["end"]) == (
            "6", "32", "0", "3"
        )

        persistence = PersistenceConfig(directory=tmp_path)
        config = ServeConfig(n_shards=1, tick_interval_s=0.001,
                             max_steps_per_tick=1, persistence=persistence)
        script = cohort_scripts(classroom_game, 1, seed=5)[0]
        with SessionManager(config) as manager:
            manager.submit("p", session_factory_for_script(classroom_game, script))
            assert manager.drain(timeout=30)
        assert main(["wal", "inspect", str(tmp_path)]) == 0
        row = _inspect_rows(capsys.readouterr().out)["shard-00"]
        assert (row["start"], row["input"], row["end"]) == ("1", "0", "1")
        assert int(row["progress"]) >= 1

    def test_wal_inspect_counts_live_sessions_whose_start_was_compacted(
        self, tmp_path, capsys
    ):
        """Snapshots and compaction leave only progress records, which
        name no ``sid``; inspect still counts what recovery rebuilds."""
        from repro.core import fetch_quest_game
        from repro.persist import PersistenceConfig, recover_shard, scan_journal
        from repro.serve import ServeConfig, SessionManager
        from repro.serve.session import ServedSession

        game = fetch_quest_game(n_quests=2, title="wal-recover").build()
        persistence = PersistenceConfig(
            directory=tmp_path, snapshot_every=8, segment_max_bytes=4096,
        )
        manager = SessionManager(ServeConfig(
            n_shards=1, max_steps_per_tick=4, persistence=persistence,
        ))
        shard = manager._shards[0]  # ticked by hand, then "crashed"
        shard._open_journal()
        for k in range(4):
            shard.enqueue(f"p{k}", lambda pid: ServedSession(
                pid, game.new_engine(), [MouseClick(1, 1)] * 400, dt=0.25,
            ))
        shard._admit()
        for _ in range(12):
            shard._step_batch()
        shard._close_journal()
        shard_dir = persistence.shard_dir(0)
        kinds = {r["t"] for r in scan_journal(shard_dir).records}
        assert kinds == {"progress"}  # every start record compacted away

        assert main(["wal", "inspect", str(tmp_path)]) == 0
        row = _inspect_rows(capsys.readouterr().out)["shard-00"]
        recovered = recover_shard(shard_dir, game, truncate=False,
                                  write_snapshots=False)
        assert int(row["live"]) == len(recovered.sessions) == 4
        assert row["ended"] == "0"

    def test_read_only_scans_create_no_snapshot_directory(
        self, tmp_path, capsys, classroom_game
    ):
        """``wal inspect`` and a read-only recovery (the promotion
        digest audit) leave the journal they read as they found it."""
        import shutil
        from pathlib import Path

        from repro.persist import recover_shard

        shard_dir = tmp_path / "shard-00"
        shard_dir.mkdir()
        shutil.copy(Path(__file__).parent / "data" / "wal_v1" / "shard-00"
                    / "wal-00000001.log", shard_dir)
        assert main(["wal", "inspect", str(tmp_path)]) == 0
        assert _inspect_rows(capsys.readouterr().out)["shard-00"]["live"] == "3"
        recover_shard(shard_dir, classroom_game, truncate=False,
                      write_snapshots=False)
        assert sorted(p.name for p in shard_dir.iterdir()) == [
            "wal-00000001.log"
        ]

    def test_wal_inspect_bad_directory(self, tmp_path, capsys):
        assert main(["wal", "inspect", str(tmp_path / "missing")]) == 2

    @pytest.mark.parametrize("action", ["inspect", "compact", "recover"])
    @pytest.mark.parametrize("entries", [[], ["notes.txt"]])
    def test_wal_refuses_a_directory_without_journals(
        self, tmp_path, capsys, action, entries
    ):
        for name in entries:
            (tmp_path / name).write_text("not a journal\n")
        assert main(["wal", action, str(tmp_path)]) == 2
        assert "is not a journal directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == entries


class TestScenarioFunnel:
    def _play_session(self, game, visit_market: bool):
        eng = game.new_engine(with_video=False)
        # Subscribe before start() so the initial scenario notice is seen.
        rec = SessionRecorder(eng.bus, "p")
        eng.start()
        # Click the computer (interaction in the classroom), then dismiss
        # its description popup so later clicks are not modal-captured.
        x, y = game.scenarios["classroom"].get_object("computer").hotspot.center()
        eng.handle_input(MouseClick(x, y))
        eng.handle_input(MouseClick(1, 1))
        if visit_market:
            bx, by = game.scenarios["classroom"].get_object(
                "classroom-go-market").hotspot.center()
            eng.handle_input(MouseClick(bx, by))
        return rec.finish(10.0, None, 0, len(eng.state.visited))

    def test_reach_fractions(self, classroom_game):
        logs = [
            self._play_session(classroom_game, visit_market=True),
            self._play_session(classroom_game, visit_market=True),
            self._play_session(classroom_game, visit_market=False),
        ]
        rows = scenario_funnel(logs)
        by_id = {r.scenario_id: r for r in rows}
        assert by_id["classroom"].sessions_reached == 3
        assert by_id["classroom"].reach_fraction == 1.0
        assert by_id["market"].sessions_reached == 2
        assert by_id["market"].reach_fraction == pytest.approx(2 / 3)

    def test_interactions_attributed_to_scenario(self, classroom_game):
        logs = [self._play_session(classroom_game, visit_market=False)]
        rows = scenario_funnel(logs)
        by_id = {r.scenario_id: r for r in rows}
        # Both gestures (click + dismissal-free click) land in the classroom.
        assert by_id["classroom"].mean_interactions >= 1

    def test_sorted_by_reach(self, classroom_game):
        logs = [self._play_session(classroom_game, visit_market=i == 0)
                for i in range(2)]
        rows = scenario_funnel(logs)
        reaches = [r.sessions_reached for r in rows]
        assert reaches == sorted(reaches, reverse=True)

    def test_requires_logs(self):
        with pytest.raises(ValueError):
            scenario_funnel([])
