"""Kill-and-recover tests for the durable serving layer."""

import shutil
import threading
import time

import pytest

from repro.faultline.chaos import reference_digest
from repro.persist import PersistenceConfig, recover_shard, scan_journal, state_digest
from repro.persist.records import REC_END, REC_START, apply_scripted_op
from repro.persist.wal import Journal
from repro.runtime import MouseClick
from repro.serve import (
    ServeConfig,
    ServedSession,
    SessionManager,
    session_factory_for_script,
)
from repro.students import cohort_scripts
from repro.video.player import SimulatedClock


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 6, seed=31)


def _submit_cohort(manager, game, scripts, copies=2):
    factories = {
        s.player_id: session_factory_for_script(game, s) for s in scripts
    }
    sids = []
    for k in range(copies):
        for script in scripts:
            sid = f"{script.player_id}#{k}"
            assert manager.submit(sid, factories[script.player_id])
            sids.append(sid)
    return sids


def _script_for(scripts, sid):
    return next(s for s in scripts if sid.startswith(s.player_id + "#"))


def _reference_digest(game, script, upto):
    engine = game.new_engine(clock=SimulatedClock(0.0), with_video=False)
    engine.start()
    for op in script.ops[:upto]:
        apply_scripted_op(engine, op, script.dt)
    return state_digest(engine.state)


class TestKillAndRecover:
    def test_hard_stop_mid_flight_recovers_bit_identical(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(
            directory=tmp_path, snapshot_every=3
        )
        config = ServeConfig(
            n_shards=2, tick_interval_s=0.02, max_steps_per_tick=1,
            persistence=persistence,
        )

        # Phase 1: run a cohort, then kill the manager mid-flight
        # (discard shutdown = the orderly part of a crash; the torn
        # tail below is the disorderly part).
        manager = SessionManager(config).start()
        _submit_cohort(manager, classroom_game, scripts)
        time.sleep(0.2)  # a few committed steps, nobody finished
        manager.shutdown(drain=False)
        assert manager.completed_sessions < len(scripts) * 2

        # ... and the record that was mid-write when the power died:
        shard_dir = persistence.shard_dir(0)
        segment = sorted(shard_dir.glob("wal-*.log"))[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\x30\x00\x00\x00\x01\x02 torn mid-frame")

        # Phase 2: a fresh manager recovers from the same directory.
        manager2 = SessionManager(config)
        reports = manager2.recover(classroom_game)
        live = [s for r in reports for s in r.sessions]
        assert live, "expected in-flight sessions to recover"
        assert sum(r.torn_records for r in reports) == 1

        identical = 0
        for session in live:
            script = _script_for(scripts, session.player_id)
            if session.digest == _reference_digest(
                classroom_game, script, session.cursor
            ):
                identical += 1
        assert identical / len(live) >= 0.99

        # Phase 3: the recovered sessions resume stepping to the end.
        manager2.start()
        assert manager2.drain(timeout=60.0)
        manager2.shutdown()
        completed_before = manager.completed_sessions
        assert manager2.completed_sessions == len(live)
        assert completed_before + len(live) + sum(
            r.ended_sessions for r in reports
        ) >= len(scripts) * 2

        # After the drained shutdown the journals are clean again.
        for i in range(config.n_shards):
            report = scan_journal(persistence.shard_dir(i))
            assert report.torn_records == 0

    def test_drained_shutdown_leaves_no_live_sessions(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(directory=tmp_path)
        config = ServeConfig(
            n_shards=2, tick_interval_s=0.001, max_steps_per_tick=50,
            persistence=persistence,
        )
        with SessionManager(config) as manager:
            _submit_cohort(manager, classroom_game, scripts, copies=1)
            assert manager.drain(timeout=60.0)
        # Every session start has a matching end on disk; recovery of a
        # cleanly drained journal rebuilds nothing.
        manager2 = SessionManager(config)
        reports = manager2.recover(classroom_game)
        assert sum(len(r.sessions) for r in reports) == 0
        assert sum(r.ended_sessions for r in reports) == len(scripts)
        assert sum(r.torn_records for r in reports) == 0

    def test_discard_shutdown_closes_journals_cleanly(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(directory=tmp_path)
        config = ServeConfig(
            n_shards=2, tick_interval_s=0.05, max_steps_per_tick=1,
            persistence=persistence,
        )
        manager = SessionManager(config).start()
        _submit_cohort(manager, classroom_game, scripts)
        time.sleep(0.1)
        manager.shutdown(drain=False)  # discard the backlog...
        for i in range(config.n_shards):
            shard_dir = persistence.shard_dir(i)
            if shard_dir.is_dir():
                # ... but the journal was flushed and closed, not torn.
                assert scan_journal(shard_dir).torn_records == 0

    def test_one_live_session_per_player_id(
        self, tmp_path, classroom_game, scripts
    ):
        """A second submit under an id still in flight is refused, so the
        journal holds one start and one end for it; once the END is
        released the id is free again."""
        persistence = PersistenceConfig(directory=tmp_path)
        config = ServeConfig(
            n_shards=1, tick_interval_s=0.002, max_steps_per_tick=50,
            persistence=persistence,
        )
        factory = session_factory_for_script(classroom_game, scripts[0])
        with SessionManager(config) as manager:
            assert manager.submit("p", factory)
            assert not manager.submit("p", factory)
            assert manager.rejected_sessions == 0  # not backpressure
            deadline = time.monotonic() + 30.0
            while manager.in_flight and time.monotonic() < deadline:
                time.sleep(0.002)
            assert manager.in_flight == 0
            assert manager.submit("p", factory)  # END released: free again
            assert manager.drain(timeout=30.0)
        kinds = [r["t"] for r in scan_journal(persistence.shard_dir(0)).records
                 if r.get("sid") == "p" and r["t"] in (REC_START, REC_END)]
        assert kinds == [REC_START, REC_END, REC_START, REC_END]

    def test_a_recovered_player_id_is_live(self, tmp_path, classroom_game, scripts):
        persistence = PersistenceConfig(directory=tmp_path)
        config = ServeConfig(
            n_shards=1, tick_interval_s=0.05, max_steps_per_tick=1,
            persistence=persistence,
        )
        factory = session_factory_for_script(classroom_game, scripts[0])
        manager = SessionManager(config).start()
        assert manager.submit("p", factory)
        time.sleep(0.1)  # started and journalled, far from finished
        manager.shutdown(drain=False)

        manager2 = SessionManager(config)
        reports = manager2.recover(classroom_game)
        assert [s.player_id for r in reports for s in r.sessions] == ["p"]
        manager2.start()
        assert not manager2.submit("p", factory)
        assert manager2.drain(timeout=60.0)
        manager2.shutdown()
        kinds = [r["t"] for r in scan_journal(persistence.shard_dir(0)).records
                 if r.get("sid") == "p" and r["t"] in (REC_START, REC_END)]
        assert kinds == [REC_START, REC_END]

    def test_recover_guards(self, tmp_path, classroom_game):
        with pytest.raises(RuntimeError):
            SessionManager(ServeConfig(n_shards=1)).recover(classroom_game)
        config = ServeConfig(
            n_shards=1,
            persistence=PersistenceConfig(directory=tmp_path),
        )
        manager = SessionManager(config).start()
        with pytest.raises(RuntimeError):
            manager.recover(classroom_game)
        manager.shutdown()

    def test_without_persistence_nothing_is_written(
        self, tmp_path, classroom_game, scripts
    ):
        config = ServeConfig(n_shards=2, tick_interval_s=0.001,
                             max_steps_per_tick=50)
        with SessionManager(config) as manager:
            _submit_cohort(manager, classroom_game, scripts, copies=1)
            assert manager.drain(timeout=60.0)
        assert list(tmp_path.iterdir()) == []


class TestRecoverTwice:
    def test_a_second_crash_after_compaction_keeps_every_live_session(
        self, tmp_path, classroom_game
    ):
        """Recover a long session partway; new sessions snapshot and
        compact its start record away; a late session starts, and the
        long one snapshots (and compacts) before the late one first
        does; crash again.  The second recovery rebuilds both
        bit-identically at the cursors they last logged."""
        persistence = PersistenceConfig(
            directory=tmp_path, snapshot_every=4, segment_max_bytes=4096,
        )
        config = ServeConfig(n_shards=1, max_steps_per_tick=1,
                             persistence=persistence)
        ops = [MouseClick(1, 1)] * 400

        def tick(manager, admit=(), ticks=0):
            """Admit ``(player id, op count)`` pairs on shard 0, tick it
            ``ticks`` times by hand, each tick's records made durable
            before the next; the cursors of what is still live."""
            shard = manager._shards[0]
            for pid, n in admit:
                shard.enqueue(pid, lambda pid, n=n: ServedSession(
                    pid, classroom_game.new_engine(with_video=False),
                    ops[:n]))
            shard._admit()
            for _ in range(ticks):
                assert shard._journal.sync(10.0)
                shard._step_batch()
            return {s.player_id: s.cursor for s in shard._active}

        def crash_and_recover(manager):
            # closing leaves every unfinished session live on disk
            manager._shards[0]._close_journal()
            manager = SessionManager(config)
            (report,) = manager.recover(classroom_game)
            for session in report.sessions:
                assert session.digest == reference_digest(
                    classroom_game, ops, 0.25, session.cursor)
            cursors = {s.player_id: s.cursor for s in report.sessions}
            manager._shards[0]._open_journal()
            return manager, cursors

        manager = SessionManager(config)
        manager._shards[0]._open_journal()
        cursors = tick(manager, [("long", len(ops))], ticks=6)
        manager, recovered = crash_and_recover(manager)
        assert recovered == cursors == {"long": 6}

        live = tick(manager, [(f"new-{k}", 12) for k in range(6)])
        while len(live) > 1:
            live = tick(manager, ticks=1)
        records = scan_journal(persistence.shard_dir(0)).records
        assert not [r for r in records
                    if r["t"] == REC_START and r["sid"] == "long"]

        # one step per tick, long first: four steps of the long session
        # and three of the late one, a step short of its first snapshot
        cursors = tick(manager, [("late", len(ops))], ticks=7)
        assert cursors["late"] == 3
        manager, recovered = crash_and_recover(manager)
        assert recovered == cursors
        manager._shards[0]._close_journal()


class TestEndWindow:
    """A crash after a session's last op, before its end record is
    durable: its END was never sent, so it must come back live."""

    @pytest.mark.parametrize("snapshot_every", [4, 64])
    def test_session_survives_a_crash_before_its_end_is_durable(
        self, tmp_path, classroom_game, monkeypatch, snapshot_every
    ):
        stalled, resume = threading.Event(), threading.Event()
        write_batch = Journal._write_batch

        def stall_end_records(journal, batch):
            if any(b'"t":"end"' in frame for _, frame in batch):
                stalled.set()
                resume.wait(30.0)
            write_batch(journal, batch)

        monkeypatch.setattr(Journal, "_write_batch", stall_end_records)
        # small segments, so compaction drops the segment that holds
        # the start record long before the session ends
        persistence = PersistenceConfig(
            directory=tmp_path / "live", segment_max_bytes=4096,
            snapshot_every=snapshot_every,
        )
        config = ServeConfig(n_shards=1, tick_interval_s=0.001,
                             max_steps_per_tick=1, persistence=persistence)
        ops = [MouseClick(1, 1)] * 300
        image = tmp_path / "image"
        manager = SessionManager(config).start()
        try:
            assert manager.submit("X", lambda pid: ServedSession(
                pid, classroom_game.new_engine(with_video=False), ops))
            assert stalled.wait(60.0)
            time.sleep(0.2)  # the END window: everything else has run
            shutil.copytree(persistence.shard_dir(0), image)
        finally:
            resume.set()
            manager.shutdown(drain=False)

        report = recover_shard(image, classroom_game, truncate=False,
                               write_snapshots=False)
        assert [s.player_id for s in report.sessions] == ["X"]
        session = report.sessions[0]
        engine = classroom_game.new_engine(clock=SimulatedClock(0.0),
                                           with_video=False)
        engine.start()
        for op in ops[:session.cursor]:
            apply_scripted_op(engine, op, 0.25)
        assert session.digest == state_digest(engine.state)
