"""Loopback tests for WAL-shipping replication (source → standby)."""

import json
import socket
import time

import pytest

from repro import obs
from repro.cli import main
from repro.cluster import ClusterGateway, NodeInfo, plan_placement
from repro.faultline.chaos import reference_digest
from repro.gateway.protocol import HELLO, ProtocolError
from repro.gateway.protocol import encode_frame as gateway_encode_frame
from repro.persist import (
    Journal,
    PersistenceConfig,
    scan_journal,
    start_record,
    state_digest,
)
from repro.persist.records import ops_from_dicts
from repro.replicate import (
    R_ACK,
    R_ERROR,
    R_HANDSHAKE,
    ReplicationSource,
    StandbyReplica,
    write_epoch,
)
from repro.replicate.protocol import encode, make_decoder, require
from repro.serve import ServeConfig, SessionManager, session_factory_for_script
from repro.students import cohort_scripts

N_SHARDS = 2


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=17)


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield obs
    obs.set_enabled(was)


def _manager(persistence, **kwargs):
    kwargs.setdefault("n_shards", N_SHARDS)
    kwargs.setdefault("tick_interval_s", 0.003)
    kwargs.setdefault("max_steps_per_tick", 8)
    return SessionManager(ServeConfig(persistence=persistence, **kwargs))


def _submit_all(manager, game, scripts, suffix="r"):
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


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        frame = encode(R_HANDSHAKE, {"shard": 1, "epoch": 3, "start": 42})
        frames = make_decoder().feed(frame)
        assert frames == [(R_HANDSHAKE, {"shard": 1, "epoch": 3, "start": 42})]

    def test_decoder_rejects_gateway_vocabulary(self):
        # same physical framing, disjoint frame vocabulary: a gateway
        # HELLO must not parse as a replication frame
        frame = gateway_encode_frame(HELLO, {"client": "x"})
        with pytest.raises(ProtocolError):
            make_decoder().feed(frame)

    def test_require_names_the_missing_key(self):
        require({"shard": 0}, "shard")
        with pytest.raises(ProtocolError, match="epoch"):
            require({"shard": 0}, "shard", "epoch")


class TestShipping:
    def test_steady_state_is_bit_identical(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(
            directory=tmp_path / "primary", snapshot_every=0,
            compact=False,
        )
        manager = _manager(persistence)
        with ReplicationSource(persistence, N_SHARDS) as source:
            source.attach(manager)
            manager.start()
            with StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ) as standby:
                sids = _submit_all(manager, classroom_game, scripts)
                assert manager.drain(timeout=30)
                manager.shutdown(drain=False)
                tips = _primary_tips(persistence)
                assert standby.wait_caught_up(tips, timeout_s=10)

                by_sid = {}
                for st in standby.shard_states():
                    assert st.lag == 0
                    by_sid.update(st.sessions)
                assert sorted(by_sid) == sorted(sids)
                for sid, sess in by_sid.items():
                    assert sess.ended
                    assert state_digest(sess.engine.state) == reference_digest(
                        classroom_game, ops_from_dicts(sess.ops),
                        sess.dt, sess.cursor,
                    )

    def test_standby_journal_holds_every_primary_record(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(
            directory=tmp_path / "primary", snapshot_every=0,
            compact=False,
        )
        manager = _manager(persistence)
        with ReplicationSource(persistence, N_SHARDS) as source:
            source.attach(manager)
            manager.start()
            with StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ) as standby:
                _submit_all(manager, classroom_game, scripts)
                assert manager.drain(timeout=30)
                manager.shutdown(drain=False)
                assert standby.wait_caught_up(_primary_tips(persistence), 10)
                for shard in range(N_SHARDS):
                    p = scan_journal(persistence.shard_dir(shard)).records
                    s = scan_journal(
                        tmp_path / "standby" / f"shard-{shard:02d}"
                    ).records
                    assert p == s  # same records, same order, same LSNs

    def test_reconnect_after_severed_link_is_idempotent(
        self, tmp_path, classroom_game, scripts, live
    ):
        persistence = PersistenceConfig(
            directory=tmp_path / "primary", snapshot_every=0,
            compact=False,
        )
        manager = _manager(persistence, tick_interval_s=0.01,
                           max_steps_per_tick=1)
        with ReplicationSource(
            persistence, N_SHARDS, batch_max_records=2,
        ) as source:
            source.attach(manager)
            manager.start()
            with StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ) as standby:
                _submit_all(manager, classroom_game, scripts)
                # sever every shipping connection mid-stream, twice:
                # the standby must reconnect and resume from applied+1
                for _ in range(2):
                    time.sleep(0.1)
                    source._sever_all()
                assert manager.drain(timeout=30)
                manager.shutdown(drain=False)
                assert standby.wait_caught_up(_primary_tips(persistence), 10)
                reconnects = obs.get_registry().get(
                    "repro_repl_reconnects_total"
                )
                assert reconnects is not None and reconnects.total() >= 1
                for st in standby.shard_states():
                    for sess in st.sessions.values():
                        assert state_digest(sess.engine.state) == (
                            reference_digest(
                                classroom_game, ops_from_dicts(sess.ops),
                                sess.dt, sess.cursor,
                            )
                        )

    def test_one_append_is_one_commit(self, tmp_path, classroom_game, scripts):
        # the APPEND handler alone logs, fsyncs, applies and acks a batch
        script = scripts[0]
        standby = StandbyReplica(tmp_path, classroom_game, 1, "127.0.0.1", 0)
        st = standby.shard_states()[0]
        standby._handle_handshake(st, {"shard": 0, "epoch": 1, "start": 1})

        from repro.persist.records import input_record, start_record

        records = [dict(start_record("p#0", script.dt, script.ops), n=1)]
        for i, op in enumerate(script.ops[:3]):
            records.append(dict(input_record("p#0", op), n=2 + i))
        ours, theirs = socket.socketpair()
        st.sock = ours
        try:
            standby._handle_append(st, {"shard": 0, "records": records})
            assert st.applied_lsn == st.commit_lsn == records[-1]["n"]
            assert st.log.committed_bytes == st.log.size
            assert st.sessions["p#0"].cursor == 3
            theirs.settimeout(5)
            decoder = make_decoder()
            frames = []
            while not frames:
                frames = decoder.feed(theirs.recv(65536))
        finally:
            ours.close()
            theirs.close()
        assert frames == [(R_ACK, {"shard": 0, "lsn": records[-1]["n"],
                                   "client": "standby"})]

    def test_duplicate_append_and_commit_are_idempotent(
        self, tmp_path, classroom_game, scripts
    ):
        # unit-level: drive one standby shard's handlers directly with
        # a replayed batch, as a flaky link would after a reconnect
        script = scripts[0]
        standby = StandbyReplica(
            tmp_path, classroom_game, 1, "127.0.0.1", 0,
        )
        st = standby.shard_states()[0]
        standby._handle_handshake(st, {"shard": 0, "epoch": 1, "start": 1})

        from repro.persist.records import (
            input_record,
            op_to_dict,
            start_record,
        )

        records = [dict(start_record("p#0", script.dt, script.ops), n=1)]
        for i, op in enumerate(script.ops[:4]):
            records.append(dict(input_record("p#0", op), n=2 + i))
        batch = {"shard": 0, "records": records}

        standby._handle_append(st, batch)
        digest_once = state_digest(st.sessions["p#0"].engine.state)
        cursor_once = st.sessions["p#0"].cursor
        assert cursor_once == 4
        assert digest_once == reference_digest(
            classroom_game, script.ops, script.dt, 4,
        )

        # the duplicate delivery: already-applied LSNs are dropped
        standby._handle_append(st, batch)
        assert st.sessions["p#0"].cursor == cursor_once
        assert state_digest(st.sessions["p#0"].engine.state) == digest_once
        assert st.applied_lsn == records[-1]["n"]
        # and nothing was double-written to the mirror log either
        op_dicts = [op_to_dict(op) for op in script.ops[:4]]
        assert op_dicts  # sanity: codec round-trips the ops we shipped
        logged = scan_journal(st.directory).records
        assert [r["n"] for r in logged] == [r["n"] for r in records]

    def test_mid_stream_join_bootstraps_from_snapshots(
        self, tmp_path, classroom_game, scripts, live
    ):
        # a primary whose early segments are already compacted away: a
        # brand-new standby asking for LSN 1 must be answered with the
        # snapshots covering the dropped prefix.  Hand-craft the
        # journal so the compaction point is deterministic.
        from repro.persist import (
            Journal,
            SnapshotStore,
            compact_segments,
            input_record,
            snapshot_dir_for,
            start_record,
        )
        from repro.persist.records import apply_scripted_op
        from repro.video.player import SimulatedClock

        root = tmp_path / "primary"
        shard_dir = root / "shard-00"
        journal = Journal(shard_dir, PersistenceConfig(
            directory=shard_dir, segment_max_bytes=4096, sync_each=True,
        ))
        store = SnapshotStore(snapshot_dir_for(shard_dir))
        sessions = []  # (sid, script, engine, last input lsn)
        for i, script in enumerate(scripts + scripts):
            sid = f"{script.player_id}#m{i}"
            journal.append(start_record(sid, script.dt, script.ops))
            engine = classroom_game.new_engine(
                clock=SimulatedClock(0.0), with_video=False,
            )
            engine.start()
            sessions.append([sid, script, engine, 0])
        longest = max(len(s.ops) for _, s, _, _ in sessions)
        for step in range(longest):  # round-robin, like the shards do
            for entry in sessions:
                sid, script, engine, _ = entry
                if step < len(script.ops):
                    op = script.ops[step]
                    entry[3] = journal.append(input_record(sid, op))
                    apply_scripted_op(engine, op, script.dt)
        for sid, script, engine, lsn in sessions:
            store.write(sid, script.dt, script.ops, len(script.ops),
                        engine.state.to_dict(), lsn=lsn)
        journal.close()
        assert len(list(shard_dir.glob("wal-*.log"))) > 1, \
            "test setup: expected the journal to rotate"
        dropped = compact_segments(
            shard_dir, min(lsn for _, _, _, lsn in sessions),
        )
        assert dropped >= 1, "test setup: expected a compacted prefix"
        tip = scan_journal(shard_dir).tip_lsn

        persistence = PersistenceConfig(directory=root)
        with ReplicationSource(persistence, 1) as source:
            with StandbyReplica(
                tmp_path / "standby", classroom_game, 1,
                source.host, source.port,
            ) as standby:
                assert standby.wait_caught_up({0: tip}, 10)
                boots = obs.get_registry().get(
                    "repro_repl_snapshot_bootstraps_total"
                )
                assert boots is not None and boots.total() >= 1
                st = standby.shard_states()[0]
                assert len(st.sessions) == len(sessions)
                for sid, script, engine, _ in sessions:
                    sess = st.sessions[sid]
                    # bootstrapped state + streamed tail must equal a
                    # from-scratch replay of the same cursor
                    assert sess.cursor == len(script.ops)
                    assert state_digest(sess.engine.state) == (
                        reference_digest(
                            classroom_game, script.ops, script.dt,
                            len(script.ops),
                        )
                    )
                # the mirrored snapshots make the standby recoverable
                # even though the streamed log starts mid-history
                mirrored, rejected = SnapshotStore(
                    snapshot_dir_for(st.directory)
                ).load_all()
                assert rejected == 0
                assert sorted(mirrored) == sorted(
                    sid for sid, _, _, _ in sessions
                )


class TestLagAndQuery:
    def test_query_unknown_player_raises_keyerror(
        self, tmp_path, classroom_game
    ):
        standby = StandbyReplica(tmp_path, classroom_game, 1,
                                 "127.0.0.1", 0)
        with pytest.raises(KeyError):
            standby.query("nobody")

    def test_query_returns_consistent_view(
        self, tmp_path, classroom_game, scripts
    ):
        persistence = PersistenceConfig(
            directory=tmp_path / "primary", snapshot_every=0,
            compact=False,
        )
        manager = _manager(persistence)
        with ReplicationSource(persistence, N_SHARDS) as source:
            source.attach(manager)
            manager.start()
            with StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ) as standby:
                sids = _submit_all(manager, classroom_game, scripts)
                assert manager.drain(timeout=30)
                manager.shutdown(drain=False)
                assert standby.wait_caught_up(_primary_tips(persistence), 10)
                view = standby.query(sids[0])
                assert view["player"] == sids[0]
                assert view["status"] == "done"
                assert view["lag"] == 0
                script = scripts[0]
                assert view["digest"] == reference_digest(
                    classroom_game, script.ops, script.dt, len(script.ops),
                )


class TestFencing:
    def test_source_refuses_handshake_from_higher_epoch(
        self, tmp_path, classroom_game, live
    ):
        persistence = PersistenceConfig(directory=tmp_path / "primary")
        persistence.shard_dir(0).mkdir(parents=True)
        with ReplicationSource(persistence, 1) as source:
            with socket.create_connection(
                (source.host, source.port), timeout=5
            ) as conn:
                # epoch 7 proves a promotion happened elsewhere: this
                # source is a deposed primary and must not ship
                conn.sendall(encode(R_HANDSHAKE, {
                    "shard": 0, "epoch": 7, "start": 1,
                }))
                decoder = make_decoder()
                frames = []
                while not frames:
                    frames = decoder.feed(conn.recv(65536))
                ftype, payload = frames[0]
                assert ftype == R_ERROR
                assert payload["code"] == "fenced"
        fenced = obs.get_registry().get("repro_repl_fenced_total")
        assert fenced is not None and fenced.total() >= 1

    def test_standby_stops_following_a_stale_primary(
        self, tmp_path, classroom_game
    ):
        persistence = PersistenceConfig(directory=tmp_path / "primary")
        persistence.shard_dir(0).mkdir(parents=True)
        standby_root = tmp_path / "standby"
        # this standby was promoted to epoch 5 in a previous life; the
        # surviving epoch-1 source must not be followed backwards
        write_epoch(standby_root / "shard-00", 5)
        with ReplicationSource(persistence, 1) as source:
            standby = StandbyReplica(
                standby_root, classroom_game, 1,
                source.host, source.port,
            ).start()
            try:
                deadline = time.monotonic() + 5
                st = standby.shard_states()[0]
                while not st.fenced and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert st.fenced
                assert st.epoch == 5
            finally:
                standby.stop()


class TestGatewayReadReplica:
    def test_replica_gateway_serves_queries_and_refuses_writes(
        self, tmp_path, classroom_game, scripts
    ):
        """Standby reads go through the placement router, which asks the
        standby; a standby has no write path of its own."""
        persistence = PersistenceConfig(
            directory=tmp_path / "primary", snapshot_every=0,
            compact=False,
        )
        manager = _manager(persistence)
        with ReplicationSource(persistence, N_SHARDS) as source:
            source.attach(manager)
            manager.start()
            with StandbyReplica(
                tmp_path / "standby", classroom_game, N_SHARDS,
                source.host, source.port,
            ) as standby:
                sids = _submit_all(manager, classroom_game, scripts)
                assert manager.drain(timeout=30)
                manager.shutdown(drain=False)
                assert standby.wait_caught_up(_primary_tips(persistence), 10)

                router = ClusterGateway(plan_placement(
                    N_SHARDS, NodeInfo("primary", "primary"),
                    [NodeInfo("standby")],
                ))
                router.register("primary", manager)
                router.register("standby", standby)
                view = router.query(sids[0])
                with pytest.raises(KeyError):
                    router.query("nobody")
                assert not hasattr(standby, "submit")
        script = scripts[0]
        assert view["node"] == "standby"
        assert view["player"] == sids[0]
        assert view["status"] == "done"
        assert view["lag"] == 0
        assert view["digest"] == reference_digest(
            classroom_game, script.ops, script.dt, len(script.ops),
        )

    def test_primary_gateway_answers_query_for_done_session(
        self, tmp_path, classroom_game, scripts
    ):
        import asyncio

        from repro.gateway import GatewayClient, GatewayServer, GatewayThread

        manager = SessionManager(ServeConfig(
            n_shards=N_SHARDS, tick_interval_s=0.002,
            max_steps_per_tick=50,
        ))
        gw = GatewayServer(manager, classroom_game)
        script = scripts[0]

        async def drive(handle):
            client = GatewayClient(handle.host, handle.port)
            await client.connect()
            try:
                await client.submit("q#1", script.ops, dt=script.dt)
                await client.wait_end("q#1", timeout=30)
                return await client.query("q#1")
            finally:
                await client.close()

        with GatewayThread(gw) as handle:
            view = asyncio.run(drive(handle))
        assert view["status"] == "done"
        assert view["digest"] == reference_digest(
            classroom_game, script.ops, script.dt, len(script.ops),
        )


class TestSnapshotOnlyDirectory:
    """_first_available_lsn / _tip_hint where compaction left no segments.

    A shard directory holding only a snapshot (every WAL segment
    compacted away) is the post-compaction bootstrap edge: a connecting
    standby must be offered the snapshots, and the handshake hints must
    not invent history that is no longer on disk.
    """

    def _snapshot_only_dir(self, tmp_path):
        from repro.persist.snapshot import SnapshotStore, snapshot_dir_for

        shard_dir = tmp_path / "shard-00"
        shard_dir.mkdir()
        SnapshotStore(snapshot_dir_for(shard_dir)).write(
            "snap-only#1", dt=0.1, ops=[], cursor=0,
            state={"phase": "done"}, lsn=7,
        )
        return shard_dir

    def test_empty_directory_hints(self, tmp_path):
        empty = tmp_path / "shard-01"
        empty.mkdir()
        assert ReplicationSource._first_available_lsn(empty) == 1
        assert ReplicationSource._tip_hint(empty) == 0

    def test_snapshot_only_first_available_lsn_is_one(self, tmp_path):
        shard_dir = self._snapshot_only_dir(tmp_path)
        # no segments on disk: every shippable LSN starts from 1, so
        # any standby `start` request triggers the snapshot bootstrap
        # (start < first is impossible; equality means "nothing to
        # tail yet")
        assert ReplicationSource._first_available_lsn(shard_dir) == 1

    def test_snapshot_only_tip_hint_is_zero(self, tmp_path):
        shard_dir = self._snapshot_only_dir(tmp_path)
        # the hint must not count snapshotted history as shippable tip
        assert ReplicationSource._tip_hint(shard_dir) == 0

    def test_hints_after_compaction_follow_surviving_segment(
        self, tmp_path
    ):
        from repro.persist.wal import Journal, list_segments

        shard_dir = self._snapshot_only_dir(tmp_path)
        journal = Journal(shard_dir)
        for k in range(3):
            journal.append({"t": "INPUT", "sid": "s", "k": k})
        journal.close()
        segments = list_segments(shard_dir)
        assert segments, "journal never produced a segment"
        assert ReplicationSource._first_available_lsn(shard_dir) == 1
        # simulate compaction dropping the only segment again: the
        # hints must fall back to the snapshot-only answers, not keep
        # reporting the dead segment's range
        for _, path in segments:
            path.unlink()
        assert ReplicationSource._first_available_lsn(shard_dir) == 1
        assert ReplicationSource._tip_hint(shard_dir) == 0


def _journal_root(root, shards, records=3):
    """A persistence root whose ``shard-NN`` journals hold ``records``
    start records each."""
    for shard in shards:
        journal = Journal(root / f"shard-{shard:02d}",
                          PersistenceConfig(directory=root))
        for k in range(records):
            journal.append(start_record(f"p{shard}-{k}", 0.25, []))
        journal.close()


class TestCli:
    """``repro repl`` through ``main([...])``."""

    @pytest.fixture(autouse=True)
    def keep_obs_setting(self):
        was = obs.enabled()  # serve turns metrics on
        yield
        obs.set_enabled(was)

    def test_serve_with_duration(self, tmp_path, capsys):
        _journal_root(tmp_path, [0, 1])
        assert main(["repl", "serve", str(tmp_path), "--duration", "0.1"]) == 0
        assert "shipping 2 shard(s)" in capsys.readouterr().out

    def test_status_table_and_json(self, tmp_path, capsys):
        _journal_root(tmp_path, [0, 1])
        assert main(["repl", "status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Replication status" in out and "shard-01" in out

        assert main(["repl", "status", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root"] == str(tmp_path)
        assert [(row["shard"], row["dir"], row["epoch"], row["tip_lsn"],
                 row["torn"]) for row in doc["shards"]] == [
            (0, "shard-00", 1, 3, 0), (1, "shard-01", 1, 3, 0),
        ]

    def test_promote_json_bumps_epoch_and_fences_past_the_tip(
        self, tmp_path, capsys
    ):
        _journal_root(tmp_path, [0, 1])
        write_epoch(tmp_path / "shard-01", 4)
        assert main(["repl", "promote", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(row["shard"], row["epoch"], row["fence_lsn"])
                for row in doc["shards"]] == [(0, 2, 4), (1, 5, 4)]
        records = scan_journal(tmp_path / "shard-01").records
        assert records[-1] == {"t": "fence", "epoch": 5, "n": 4}

    @pytest.mark.parametrize("action", ["serve", "status", "promote"])
    def test_root_without_shard_dirs_exits_2(self, tmp_path, capsys, action):
        (tmp_path / "notes.txt").write_text("not a journal")
        assert main(["repl", action, str(tmp_path)]) == 2
        assert "no shard-* journals" in capsys.readouterr().err

    def test_subset_root_is_numbered_by_directory_name(self, tmp_path, capsys):
        """A standby subscribed to shards 1 and 2 holds only those."""
        _journal_root(tmp_path, [1, 2])
        assert main(["repl", "status", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(row["shard"], row["dir"]) for row in doc["shards"]] == [
            (1, "shard-01"), (2, "shard-02"),
        ]
        assert main(["repl", "serve", str(tmp_path), "--duration", "0.1"]) == 0
        assert "shipping 3 shard(s)" in capsys.readouterr().out
        assert main(["repl", "promote", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(row["shard"], row["epoch"]) for row in doc["shards"]] == [
            (1, 2), (2, 2),
        ]
