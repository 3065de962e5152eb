"""Failover tests: heartbeat detection, promotion, the chaos cycle."""

import socket
import time

import pytest

from repro.faultline.chaos import reference_digest, run_chaos
from repro.persist import (
    PersistenceConfig,
    scan_journal,
    state_digest,
)
from repro.persist.records import REC_FENCE, ops_from_dicts
from repro.replicate import (
    Promoter,
    R_ERROR,
    R_HANDSHAKE,
    ReplicationSource,
    StandbyReplica,
    promote_directory,
    read_epoch,
)
from repro.replicate.protocol import encode, make_decoder
from repro.serve import ServeConfig, SessionManager, session_factory_for_script
from repro.students import cohort_scripts

N_SHARDS = 2


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=29)


def _manager(persistence, **kwargs):
    kwargs.setdefault("n_shards", N_SHARDS)
    kwargs.setdefault("tick_interval_s", 0.003)
    kwargs.setdefault("max_steps_per_tick", 8)
    return SessionManager(ServeConfig(persistence=persistence, **kwargs))


def _submit_all(manager, game, scripts, suffix="f"):
    sids = []
    for k, script in enumerate(scripts):
        sid = f"{script.player_id}#{suffix}{k}"
        assert manager.submit(sid, session_factory_for_script(game, script))
        sids.append(sid)
    return sids


def _primary_tips(persistence, n_shards=N_SHARDS):
    return {
        i: scan_journal(persistence.shard_dir(i), truncate=False).tip_lsn
        for i in range(n_shards)
        if persistence.shard_dir(i).is_dir()
    }


class TestHeartbeatDetection:
    def test_unreachable_primary_is_promotable(self, tmp_path, classroom_game):
        # never connected: heartbeat_age is infinite, promotion fires
        standby = StandbyReplica(tmp_path, classroom_game, 1,
                                 "127.0.0.1", 1)  # nobody listens there
        assert standby.heartbeat_age() == float("inf")
        assert Promoter(standby, heartbeat_timeout_s=60).should_promote()

    def test_live_heartbeats_hold_promotion_back(
        self, tmp_path, classroom_game
    ):
        persistence = PersistenceConfig(directory=tmp_path / "primary")
        for shard in range(N_SHARDS):
            persistence.shard_dir(shard).mkdir(parents=True)
        with ReplicationSource(
            persistence, N_SHARDS, heartbeat_s=0.02,
        ) as source:
            standby = StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ).start()
            try:
                promoter = Promoter(standby, heartbeat_timeout_s=0.5)
                deadline = time.monotonic() + 5
                while (standby.heartbeat_age() == float("inf")
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert standby.heartbeat_age() < 0.5
                assert not promoter.should_promote()
                assert not promoter.wait_for_failure(timeout_s=0.15)
            finally:
                standby.stop()
        # the source is gone: silence crosses the threshold and the
        # failure wait returns promptly
        promoter = Promoter(standby, heartbeat_timeout_s=0.05)
        assert promoter.wait_for_failure(timeout_s=5)


class TestPromotion:
    def test_kill_primary_promotes_bit_identical(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(
            directory=tmp_path / "primary", snapshot_every=0,
            compact=False,
        )
        manager = _manager(persistence, tick_interval_s=0.01,
                           max_steps_per_tick=1)
        with ReplicationSource(persistence, N_SHARDS) as source:
            source.attach(manager)
            manager.start()
            standby = StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ).start()
            _submit_all(manager, classroom_game, scripts)
            time.sleep(0.15)  # some progress; nobody finishes
            manager.shutdown(drain=False)  # the primary dies
            tips = _primary_tips(persistence)
            assert standby.wait_caught_up(tips, timeout_s=10)

        promoter = Promoter(standby, heartbeat_timeout_s=0.1)
        assert promoter.wait_for_failure(timeout_s=5)
        in_memory = standby.digests()
        report = promoter.promote(game=classroom_game)

        # epochs fenced on disk and in the log
        for shard in range(N_SHARDS):
            shard_dir = tmp_path / "standby" / f"shard-{shard:02d}"
            assert read_epoch(shard_dir) == 2
            records = scan_journal(shard_dir).records
            fences = [r for r in records if r.get("t") == REC_FENCE]
            assert [f["epoch"] for f in fences] == [2]
        assert report.epochs == {0: 2, 1: 2}

        # recovery from the promoted log lands on the very states the
        # standby was holding in memory (live sessions only)
        assert report.digests
        for sid, digest in report.digests.items():
            assert in_memory[sid] == digest

        # and those states equal an independent from-scratch replay
        for st in standby.shard_states():
            for sid, sess in st.sessions.items():
                assert state_digest(sess.engine.state) == reference_digest(
                    classroom_game, ops_from_dicts(sess.ops),
                    sess.dt, sess.cursor,
                )

        # the promoted root is an ordinary persistence directory: a
        # fresh manager resumes the survivors and drains them
        resumed = SessionManager(ServeConfig(
            n_shards=N_SHARDS, tick_interval_s=0.002,
            max_steps_per_tick=50,
            persistence=PersistenceConfig(
                directory=tmp_path / "standby",
                snapshot_every=0, compact=False,
            ),
        ))
        reports = resumed.recover(classroom_game)
        live = sum(len(r.sessions) for r in reports)
        assert live > 0
        resumed.start()
        assert resumed.drain(timeout=30)
        resumed.shutdown(drain=False)
        assert resumed.completed_sessions == live

    def test_promotion_races_inflight_primary_safely(
        self, tmp_path, classroom_game, scripts
    ):
        # promote the standby while the primary is still appending and
        # its clients still wait on durability: the standby must cut a
        # consistent state (no batch applied before its fsync), and the
        # deposed primary's source must be fenced by the new epoch
        persistence = PersistenceConfig(
            directory=tmp_path / "primary", snapshot_every=0,
            compact=False,
        )
        manager = _manager(persistence, tick_interval_s=0.01,
                           max_steps_per_tick=1, durable_wait_s=2.0)
        with ReplicationSource(persistence, N_SHARDS) as source:
            source.attach(manager)
            manager.start()
            standby = StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ).start()
            _submit_all(manager, classroom_game, scripts)
            time.sleep(0.1)  # streaming is mid-flight on every shard

            report = Promoter(standby).promote(game=classroom_game)
            assert report.epochs == {0: 2, 1: 2}
            # whatever point the cut landed on, it is bit-identical
            for st in standby.shard_states():
                for sid, sess in st.sessions.items():
                    assert state_digest(sess.engine.state) == (
                        reference_digest(
                            classroom_game, ops_from_dicts(sess.ops),
                            sess.dt, sess.cursor,
                        )
                    )

            # the primary itself is unaffected: its sessions drain
            assert manager.drain(timeout=30)

            # ... but its source is now deposed: a peer at the promoted
            # epoch is refused instead of shipped to
            with socket.create_connection(
                (source.host, source.port), timeout=5
            ) as conn:
                conn.sendall(encode(R_HANDSHAKE, {
                    "shard": 0, "epoch": report.epochs[0], "start": 1,
                }))
                decoder = make_decoder()
                frames = []
                while not frames:
                    frames = decoder.feed(conn.recv(65536))
                ftype, payload = frames[0]
            assert ftype == R_ERROR
            assert payload["code"] == "fenced"
            manager.shutdown(drain=False)

    def test_truncates_uncommitted_tail(self, tmp_path, classroom_game,
                                        scripts):
        # records a batch handler wrote to the mirror log but died
        # before fsyncing must not survive promotion — no ack covered
        # them
        from repro.persist.records import input_record, start_record

        script = scripts[0]
        standby = StandbyReplica(tmp_path, classroom_game, 1,
                                 "127.0.0.1", 0)
        st = standby.shard_states()[0]
        standby._handle_handshake(st, {"shard": 0, "epoch": 1, "start": 1})
        records = [dict(start_record("p#0", script.dt, script.ops), n=1)]
        for i, op in enumerate(script.ops[:3]):
            records.append(dict(input_record("p#0", op), n=2 + i))
        standby._handle_append(st, {"shard": 0, "records": records})
        # two more records reach the mirror... and the handler dies
        # before its fsync
        for i, op in enumerate(script.ops[3:5]):
            st.log.append(dict(input_record("p#0", op), n=5 + i))
        assert st.sessions["p#0"].cursor == 3  # never folded either

        report = Promoter(standby).promote()
        assert report.shards[0]["truncated_bytes"] > 0
        kept = scan_journal(st.directory).records
        payload = [r for r in kept if r.get("t") != REC_FENCE]
        assert [r["n"] for r in payload] == [1, 2, 3, 4]

    def test_offline_promote_directory(self, tmp_path, classroom_game,
                                       scripts):
        persistence = PersistenceConfig(
            directory=tmp_path, snapshot_every=0, compact=False,
        )
        manager = _manager(persistence, tick_interval_s=0.01,
                           max_steps_per_tick=1)
        manager.start()
        _submit_all(manager, classroom_game, scripts)
        time.sleep(0.1)
        manager.shutdown(drain=False)

        report = promote_directory(tmp_path, game=classroom_game)
        assert report.epochs == {0: 2, 1: 2}
        assert report.digests  # live sessions audited
        for shard in range(N_SHARDS):
            assert read_epoch(tmp_path / f"shard-{shard:02d}") == 2
        # promoting a promoted root fences again, monotonically
        report2 = promote_directory(tmp_path)
        assert report2.epochs == {0: 3, 1: 3}


class TestReplChaos:
    def test_kill_primary_chaos_cycle(self, classroom_game):
        scripts = cohort_scripts(classroom_game, 4, seed=97)
        report = run_chaos(
            "repl-kill-primary", seed=1301, sessions=8, n_shards=N_SHARDS,
            game=classroom_game, scripts=scripts,
        )
        assert report.lost_records == 0
        assert report.caught_up and report.promote_detected
        assert report.bit_identical
        assert report.all_faults_fired
        assert report.promoted_epochs == {0: 2, 1: 2}
        assert report.resumed_completed == report.resumed_live
        assert report.ok
        # JSON-able for the CI artifact
        assert report.to_dict()["ok"] is True

    def test_rejects_unknown_plan(self):
        with pytest.raises(ValueError, match="unknown plan"):
            run_chaos("no-such-plan", sessions=1)
