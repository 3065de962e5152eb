"""Scripted progress is logged as cursors; live ops still carry the op.

A served session's start record already holds its whole script, so the
shard logs a step by cursor alone: one ``progress`` record per tick for
every session that advanced, and an ``end`` record carrying the final
cursor.  Only ops past the logged script (gateway INPUT frames) log an
``input`` record with the op.  Recovery and the standby fold both this
form and the older one-``input``-per-step form to the same state; the
committed ``tests/data/wal_v1`` journal was written in the older form.
"""

import asyncio
import json
import shutil
import time
from pathlib import Path

import pytest

from repro import obs
from repro.faultline.chaos import reference_digest
from repro.gateway import GatewayClient, GatewayServer, GatewayThread
from repro.persist import (
    PersistenceConfig,
    SessionTable,
    SnapshotStore,
    recover_shard,
    scan_journal,
    snapshot_dir_for,
    state_digest,
)
from repro.persist.records import ops_from_dicts
from repro.replicate import ReplicationSource, StandbyReplica
from repro.runtime.inputs import KeyPress, MouseClick
from repro.serve import ServeConfig, SessionManager, session_factory_for_script
from repro.students import cohort_scripts

FIXTURE = Path(__file__).parent / "data" / "wal_v1"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())
LIVE_OPS = [MouseClick(35, 25), KeyPress("x"), MouseClick(1, 1),
            MouseClick(44, 44), KeyPress("y"), MouseClick(2, 2)]


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=41)


def _standby_apply(game, directory, records):
    """Ship ``records`` through a standby shard's own APPEND handler,
    as one batch."""
    standby = StandbyReplica(directory, game, 1, "127.0.0.1", 0)
    st = standby.shard_states()[0]
    standby._handle_append(st, {"shard": 0, "records": records})
    return st


def _kinds(records):
    kinds = {}
    for record in records:
        kinds[record["t"]] = kinds.get(record["t"], 0) + 1
    return kinds


def _oracle(game, ops, dt, cursor):
    return reference_digest(game, ops_from_dicts(ops), dt, cursor)


class TestOldFormatFixture:
    def test_fixture_is_one_input_per_step(self):
        records = scan_journal(FIXTURE / "shard-00").records
        assert _kinds(records) == EXPECTED["record_kinds"]
        assert "progress" not in _kinds(records)

    def test_recovery_reproduces_reference_digests(self, tmp_path, classroom_game):
        work = tmp_path / "shard-00"
        shutil.copytree(FIXTURE / "shard-00", work)
        report = recover_shard(work, classroom_game)
        assert report.digests() == EXPECTED["recovered"]
        assert report.ended_sessions == len(EXPECTED["ended"])
        assert report.orphan_records == 0
        for session in report.sessions:
            # live ops past the start record's script count too
            assert session.cursor == EXPECTED["cursors"][session.player_id]

    def test_standby_apply_reproduces_reference_digests(
        self, tmp_path, classroom_game
    ):
        records = scan_journal(FIXTURE / "shard-00").records
        st = _standby_apply(classroom_game, tmp_path / "standby", records)
        digests = {sid: state_digest(s.engine.state) for sid, s in st.sessions.items()}
        assert digests == EXPECTED["mirrored"]
        assert {sid for sid, s in st.sessions.items() if s.ended} == set(
            EXPECTED["ended"]
        )
        for sid, sess in st.sessions.items():
            assert sess.cursor == EXPECTED["cursors"][sid]

    def test_resumed_old_journal_appends_new_form_and_still_folds(
        self, tmp_path, classroom_game
    ):
        """Recover the old journal, resume it to the end with the new
        writer, then fold the mixed-form journal on a standby."""
        shutil.copytree(FIXTURE / "shard-00", tmp_path / "shard-00")
        config = ServeConfig(
            n_shards=1, tick_interval_s=0.002, max_steps_per_tick=1,
            persistence=PersistenceConfig(directory=tmp_path),
        )
        manager = SessionManager(config)
        reports = manager.recover(classroom_game)
        assert {s.player_id for s in reports[0].sessions} == set(
            EXPECTED["recovered"]
        )
        manager.start()
        assert manager.drain(timeout=30)
        manager.shutdown()

        records = scan_journal(tmp_path / "shard-00").records
        kinds = _kinds(records)
        assert kinds["input"] == EXPECTED["record_kinds"]["input"]
        assert kinds["progress"] >= 1
        assert kinds["end"] == 6
        st = _standby_apply(classroom_game, tmp_path / "standby", records)
        assert len(st.sessions) == 6
        for sid, sess in st.sessions.items():
            assert sess.ended, sid
            assert state_digest(sess.engine.state) == _oracle(
                classroom_game, sess.ops, sess.dt, sess.cursor
            ), sid


class TestFold:
    @staticmethod
    def _op(name):
        return {"k": "key", "key": name}

    def test_mixed_old_and_new_records(self):
        op = self._op
        a_ops = [op(f"a{i}") for i in range(5)]
        b_ops = [op(f"b{i}") for i in range(6)]
        snapshots = [
            {"sid": "B", "dt": 0.5, "ops": b_ops, "cursor": 2,
             "state": {"x": 1}, "lsn": 5},
        ]
        records = [
            {"n": 1, "t": "start", "sid": "A", "dt": 0.25, "ops": a_ops},
            {"n": 2, "t": "input", "sid": "A", "op": op("a0")},  # old form
            {"n": 3, "t": "progress", "c": {"A": 3, "B": 2}},  # B covered
            {"n": 4, "t": "start", "sid": "B", "dt": 0.5, "ops": b_ops},
            {"n": 5, "t": "progress", "c": {"B": 2}},  # lsn == covered
            # a live op past A's 5-op script: a3 and a4 ran before it
            {"n": 6, "t": "input", "sid": "A", "op": op("live"), "c": 6},
            {"n": 7, "t": "progress", "c": {"A": 6, "B": 4}},
            {"n": 8, "t": "start", "sid": "C", "dt": 0.25, "ops": a_ops},
            {"n": 9, "t": "end", "sid": "C", "out": "won", "c": 2},
            {"n": 10, "t": "input", "sid": "D", "op": op("x"), "c": 1},
            {"n": 11, "t": "progress", "c": {"E": 1}},
            {"n": 12, "t": "fence", "epoch": 2},
            {"n": 13, "t": "bogus", "sid": "A"},
        ]
        table = SessionTable.from_log(snapshots, records)
        assert table.orphans == 3  # D's input, E's progress, the bogus kind
        assert table.epoch == 2
        a, b, c = table["A"], table["B"], table["C"]
        assert a.cursor == 6 and not a.ended
        assert a.replay == a_ops + [op("live")]
        assert a.ops == a_ops + [op("live")]
        assert b.cursor == 4 and b.from_snapshot and b.state == {"x": 1}
        assert b.replay == b_ops[2:4]
        assert c.ended and c.cursor == 2 and c.outcome == "won"
        assert table.touched == {"A", "B", "C"}

    def test_old_form_input_past_the_script_extends_it(self):
        op = self._op
        records = [
            {"n": 1, "t": "start", "sid": "A", "dt": 0.25, "ops": [op("s0")]},
            {"n": 2, "t": "input", "sid": "A", "op": op("s0")},
            {"n": 3, "t": "input", "sid": "A", "op": op("live")},
            {"n": 4, "t": "progress", "c": {"A": 2}},  # already there
        ]
        table = SessionTable.from_log([], records)
        assert table.orphans == 0
        assert table["A"].cursor == 2
        assert table["A"].replay == [op("s0"), op("live")]

    def test_start_without_a_sid_is_an_orphan_for_both_consumers(
        self, tmp_path, classroom_game
    ):
        """Recovery's fold and the standby's apply both count a
        session-less start record as an orphan; neither registers it."""
        records = [
            {"n": 1, "t": "start", "dt": 0.25, "ops": [self._op("k")]},
            {"n": 2, "t": "start", "sid": "A", "dt": 0.25, "ops": []},
        ]
        table = SessionTable.from_log([], records)
        assert table.orphans == 1 and list(table) == ["A"]

        was = obs.enabled()
        obs.enable()
        failures = obs.get_registry().get("repro_repl_apply_failures_total")
        before = failures.value(shard="0")
        try:
            st = _standby_apply(classroom_game, tmp_path / "standby", records)
            assert failures.value(shard="0") == before + 1
        finally:
            obs.set_enabled(was)
        assert list(st.sessions) == ["A"] and st.applied_lsn == 2
        assert st.sessions["A"].engine is not None
        assert st.sessions["A"].state is None and st.sessions["A"].replay == []


class TestWriter:
    def test_one_tick_session_costs_two_records(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(directory=tmp_path)
        config = ServeConfig(n_shards=1, tick_interval_s=0.002,
                             max_steps_per_tick=1000, persistence=persistence)
        with SessionManager(config) as manager:
            for k, script in enumerate(scripts):
                manager.submit(f"one-{k}",
                               session_factory_for_script(classroom_game, script))
            assert manager.drain(timeout=30)
        records = scan_journal(persistence.shard_dir(0)).records
        assert _kinds(records) == {"start": len(scripts), "end": len(scripts)}
        st = _standby_apply(classroom_game, tmp_path / "standby", records)
        for k, script in enumerate(scripts):
            sess = st.sessions[f"one-{k}"]
            assert sess.ended and sess.cursor >= 1
            assert state_digest(sess.engine.state) == reference_digest(
                classroom_game, script.ops, script.dt, sess.cursor
            )

    def test_multi_tick_session_logs_progress_and_snapshots_at_it(
        self, tmp_path, classroom_game, scripts
    ):
        script = max(scripts, key=lambda s: len(s.ops))
        persistence = PersistenceConfig(directory=tmp_path, snapshot_every=3,
                                        compact=False)
        config = ServeConfig(n_shards=1, max_steps_per_tick=1,
                             persistence=persistence)
        # drive one shard's tick by hand: one step per tick, exactly
        manager = SessionManager(config)
        shard = manager._shards[0]
        shard._open_journal()
        shard.enqueue("multi", session_factory_for_script(classroom_game, script))
        shard._admit()
        for _ in range(4):
            shard._step_batch()
        store = SnapshotStore(snapshot_dir_for(persistence.shard_dir(0)))
        snap = store.load_all()[0]["multi"]
        while shard._active:
            shard._step_batch()
        shard._close_journal()

        records = scan_journal(persistence.shard_dir(0)).records
        progress = [r for r in records if r["t"] == "progress"]
        # a cursor per tick until the last step ends the session
        assert [r["c"] for r in progress] == [
            {"multi": k} for k in range(1, len(progress) + 1)
        ]
        assert snap["cursor"] == 3 and snap["lsn"] == progress[2]["n"]
        end = records[-1]
        assert end["t"] == "end" and end["c"] == len(progress) + 1
        assert "input" not in _kinds(records)


def test_live_ops_and_multi_tick_sessions_survive_crash_and_replica(
    tmp_path, classroom_game, scripts
):
    """A gateway session fed INPUT ops past its script and a session
    stepped over many ticks; crash both mid-session.  Recovery and a
    standby that followed the primary must both match the oracle at the
    recovered cursor."""
    live_script = scripts[0]
    multi_ops = scripts[1].ops * 3  # long enough to outlive the crash
    persistence = PersistenceConfig(
        directory=tmp_path / "primary", snapshot_every=3, compact=False,
    )
    config = ServeConfig(n_shards=1, tick_interval_s=0.02,
                         max_steps_per_tick=1, persistence=persistence)
    server = GatewayServer(SessionManager(config), classroom_game)
    with ReplicationSource(persistence, 1) as source:
        source.attach(server.manager)
        handle = GatewayThread(server).start()
        with StandbyReplica(tmp_path / "standby", classroom_game, 1,
                            source.host, source.port) as standby:
            try:
                async def drive():
                    async with GatewayClient(handle.host, handle.port) as client:
                        # one step per tick, shared: the live session's
                        # four scripted ops outlast the INPUT round trips
                        await client.submit("multi", multi_ops, dt=0.3)
                        await client.submit("live", live_script.ops[:4],
                                            dt=live_script.dt)
                        for op in LIVE_OPS:
                            await client.send_input("live", op)

                asyncio.run(drive())
                # crash once the live session is two ops past its script
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    session = server._players["live"].session
                    if session is not None and session.cursor >= 6:
                        break
                    time.sleep(0.002)
            finally:
                handle.stop(drain=False)
            tip = scan_journal(persistence.shard_dir(0)).tip_lsn
            assert standby.wait_caught_up({0: tip}, timeout_s=10)
            mirror = {sid: (state_digest(s.engine.state), s.cursor, s.ended)
                      for st in standby.shard_states()
                      for sid, s in st.sessions.items()}
            for st in standby.shard_states():
                for sid, sess in st.sessions.items():
                    assert mirror[sid][0] == _oracle(
                        classroom_game, sess.ops, sess.dt, sess.cursor
                    ), sid

    records = scan_journal(persistence.shard_dir(0)).records
    kinds = _kinds(records)
    assert kinds.get("input", 0) >= 2 and kinds["progress"] >= 2
    assert all("c" in r for r in records if r["t"] == "input")

    manager = SessionManager(config)
    reports = manager.recover(classroom_game)
    recovered = {s.player_id: s for s in reports[0].sessions}
    assert set(recovered) == {"live", "multi"}
    assert recovered["live"].cursor >= 6  # past the four scripted ops
    assert 1 <= recovered["multi"].cursor < len(multi_ops)
    for sid, session in recovered.items():
        assert session.digest == reference_digest(
            classroom_game, session.ops, session.dt, session.cursor
        ), sid
        assert (session.digest, session.cursor, False) == mirror[sid]
    manager.shutdown()


@pytest.mark.parametrize("snapshot_every,compact", [(0, False), (4, False), (4, True)])
def test_resubmitted_id_second_session_survives_crash(
    tmp_path, classroom_game, capsys, snapshot_every, compact
):
    """A player id whose first session ended and whose second is live
    at the crash: the journal holds start, end, start under one id.
    Recovery, a standby fed the same records and ``repro wal inspect``
    must all see the second session live."""
    from repro.cli import main
    from repro.students.scripts import PlayerScript

    persistence = PersistenceConfig(directory=tmp_path / "primary",
                                    snapshot_every=snapshot_every, compact=compact)
    config = ServeConfig(n_shards=1, tick_interval_s=0.01,
                         max_steps_per_tick=1, persistence=persistence)
    second = PlayerScript("p", [MouseClick(1, 1)] * 400, dt=0.25)
    manager = SessionManager(config).start()
    assert manager.submit("p", session_factory_for_script(
        classroom_game, PlayerScript("p", [MouseClick(1, 1)] * 30, dt=0.25)))
    deadline = time.monotonic() + 30
    while manager.in_flight and time.monotonic() < deadline:
        time.sleep(0.005)
    assert manager.in_flight == 0
    assert manager.submit("p", session_factory_for_script(classroom_game, second))
    time.sleep(0.5)  # the second session is far from its 400th op
    manager.shutdown(drain=False)

    shard_dir = persistence.shard_dir(0)
    records = scan_journal(shard_dir, truncate=False).records
    assert [r["t"] for r in records if r.get("sid") == "p"][:3] == [
        "start", "end", "start"]
    report = recover_shard(shard_dir, classroom_game, truncate=False,
                           write_snapshots=False)
    assert [s.player_id for s in report.sessions] == ["p"]
    live = report.sessions[0]
    assert 0 < live.cursor < len(second.ops)
    assert live.digest == reference_digest(classroom_game, second.ops,
                                           second.dt, live.cursor)

    standby = StandbyReplica(tmp_path / "standby", classroom_game, 1,
                             "127.0.0.1", 0)
    st = standby.shard_states()[0]
    snapshots, _rejected = SnapshotStore(snapshot_dir_for(shard_dir)).load_all()
    standby._handle_handshake(st, {"shard": 0, "epoch": 1,
                                   "start": records[0]["n"],
                                   "snapshots": list(snapshots.values())})
    standby._handle_append(st, {"shard": 0, "records": records})
    assert not st.sessions["p"].ended
    assert standby.digests() == {"p": live.digest}

    assert main(["wal", "inspect", str(tmp_path / "primary")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "|" in line]
    header = [cell.strip() for cell in lines[0].split("|")]
    row = dict(zip(header, (cell.strip() for cell in lines[1].split("|"))))
    assert (row["live"], row["ended"]) == ("1", "0")
