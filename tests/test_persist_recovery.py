"""Tests for snapshots, compaction, and crash recovery replay."""

import hashlib
import json
import os

import pytest

from repro.persist import (
    Journal,
    PersistenceConfig,
    SnapshotStore,
    WalLayoutError,
    compact_segments,
    compaction_watermark,
    input_record,
    list_segments,
    recover_shard,
    scan_journal,
    snapshot_dir_for,
    start_record,
    state_digest,
)
from repro.persist.records import apply_scripted_op, end_record
from repro.students import cohort_scripts
from repro.video.player import SimulatedClock


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=19)


def _reference_digest(game, script, upto):
    """Digest of a fresh engine after the first ``upto`` scripted ops."""
    engine = game.new_engine(clock=SimulatedClock(0.0), with_video=False)
    engine.start()
    for op in script.ops[:upto]:
        apply_scripted_op(engine, op, script.dt)
    return state_digest(engine.state)


def _log_session(journal, script, upto, end=False):
    journal.append(start_record(script.player_id, script.dt, script.ops))
    for op in script.ops[:upto]:
        journal.append(input_record(script.player_id, op))
    if end:
        journal.append(end_record(script.player_id, "completed"))


class TestScan:
    def test_scan_reads_all_records_in_lsn_order(self, tmp_path, scripts):
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        for script in scripts[:2]:
            _log_session(j, script, 3)
        j.sync(timeout=5.0)
        j.close()
        report = scan_journal(tmp_path)
        assert report.torn_records == 0
        lsns = [r["n"] for r in report.records]
        assert lsns == sorted(lsns) and report.tip_lsn == lsns[-1]

    def test_midlog_tear_discards_later_segments(self, tmp_path, scripts):
        config = PersistenceConfig(
            directory=tmp_path, segment_max_bytes=4096, sync_each=True
        )
        j = Journal(tmp_path, config)
        for k in range(120):
            j.append(input_record("s", scripts[0].ops[k % len(scripts[0].ops)]))
        j.close()
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        # Corrupt the MIDDLE segment: everything after it is untrustworthy.
        mid_path = segments[1][1]
        data = bytearray(mid_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        mid_path.write_bytes(bytes(data))
        report = scan_journal(tmp_path, truncate=True)
        assert report.torn_records == 1
        assert report.discarded_bytes > 0
        survivors = list_segments(tmp_path)
        assert [seq for seq, _ in survivors] == [segments[0][0], segments[1][0]]


class TestSnapshots:
    def test_write_load_roundtrip(self, tmp_path, classroom_game, scripts):
        script = scripts[0]
        engine = classroom_game.new_engine(
            clock=SimulatedClock(0.0), with_video=False
        )
        engine.start()
        for op in script.ops[:4]:
            apply_scripted_op(engine, op, script.dt)
        store = SnapshotStore(tmp_path)
        store.write(
            script.player_id, script.dt, script.ops, 4,
            engine.state.to_dict(), lsn=9,
        )
        loaded, rejected = store.load_all()
        assert rejected == 0
        snap = loaded[script.player_id]
        assert snap["cursor"] == 4 and snap["lsn"] == 9
        assert state_digest(snap["state"]) == state_digest(engine.state)

    def test_corrupt_snapshot_rejected(self, tmp_path, classroom_game, scripts):
        script = scripts[0]
        state = classroom_game.new_engine(with_video=False)
        state.start()
        store = SnapshotStore(tmp_path)
        path = store.write(
            script.player_id, script.dt, script.ops, 0,
            state.state.to_dict(), lsn=1,
        )
        doc = json.loads(path.read_text())
        doc["state"]["score"] = 777  # tamper: digest no longer matches
        path.write_text(json.dumps(doc))
        loaded, rejected = store.load_all()
        assert loaded == {} and rejected == 1

    def test_remove_of_a_never_written_id_touches_nothing(
        self, tmp_path, monkeypatch, classroom_game, scripts
    ):
        store = SnapshotStore(tmp_path)
        script = scripts[0]
        engine = classroom_game.new_engine(with_video=False)
        engine.start()
        path = store.write(script.player_id, script.dt, script.ops, 0,
                           engine.state.to_dict(), lsn=1)
        unlinks, hashes = [], []
        real_unlink, real_sha1 = os.unlink, hashlib.sha1
        monkeypatch.setattr(
            os, "unlink", lambda p, *a, **k: (unlinks.append(p),
                                              real_unlink(p, *a, **k))[1])
        monkeypatch.setattr(
            hashlib, "sha1", lambda *a, **k: (hashes.append(a),
                                              real_sha1(*a, **k))[1])
        assert store.remove("never-snapshotted") is False
        assert unlinks == [] and hashes == []
        assert store.remove(script.player_id) is True
        assert len(unlinks) == 1 and not path.exists()
        assert store.remove(script.player_id) is False
        assert len(unlinks) == 1

    def test_previous_process_snapshot_is_still_removed(
        self, tmp_path, classroom_game, scripts
    ):
        script = scripts[0]
        engine = classroom_game.new_engine(with_video=False)
        engine.start()
        path = SnapshotStore(tmp_path).write(
            script.player_id, script.dt, script.ops, 0,
            engine.state.to_dict(), lsn=1,
        )
        restarted = SnapshotStore(tmp_path)  # a new process, same dir
        assert restarted.remove("someone-else") is False
        assert path.exists()
        assert restarted.remove(script.player_id) is True
        assert not path.exists() and restarted.count() == 0
        assert restarted.remove(script.player_id) is False

    def test_watermark(self):
        assert compaction_watermark([7, 3, 9], tip_lsn=20) == 3
        assert compaction_watermark([], tip_lsn=20) == 20


class TestCompaction:
    def test_drops_only_covered_prefix(self, tmp_path, scripts):
        config = PersistenceConfig(
            directory=tmp_path, segment_max_bytes=4096, sync_each=True
        )
        j = Journal(tmp_path, config)
        for k in range(120):
            j.append(input_record("s", scripts[0].ops[k % len(scripts[0].ops)]))
        j.close()
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        boundary = segments[1][1]
        from repro.persist import segment_first_lsn

        first_of_second = segment_first_lsn(boundary)
        # Watermark just below the second segment: only segment 1 dies.
        dropped = compact_segments(tmp_path, first_of_second - 1)
        assert dropped == 1
        assert [seq for seq, _ in list_segments(tmp_path)] == [
            seq for seq, _ in segments[1:]
        ]
        # The active (last) segment survives even a tip-high watermark.
        dropped = compact_segments(tmp_path, 10**9)
        assert list_segments(tmp_path)[-1][0] == segments[-1][0]

    def test_recovery_after_compaction(
        self, tmp_path, classroom_game, scripts
    ):
        """A session whose start record was compacted away still recovers
        (the snapshot carries state + ops + cursor)."""
        config = PersistenceConfig(
            directory=tmp_path, segment_max_bytes=4096, sync_each=True
        )
        script = scripts[1]
        j = Journal(tmp_path, config)
        _log_session(j, script, 3)
        engine = classroom_game.new_engine(
            clock=SimulatedClock(0.0), with_video=False
        )
        engine.start()
        for op in script.ops[:3]:
            apply_scripted_op(engine, op, script.dt)
        store = SnapshotStore(snapshot_dir_for(tmp_path))
        store.write(
            script.player_id, script.dt, script.ops, 3,
            engine.state.to_dict(), lsn=j.durable_lsn,
        )
        # Push enough filler to rotate the start record's segment out.
        for k in range(120):
            j.append(input_record("filler", script.ops[k % len(script.ops)]))
        j.append(end_record("filler", "completed"))
        j.close()
        assert compact_segments(tmp_path, j.durable_lsn) >= 1

        report = recover_shard(tmp_path, classroom_game)
        by_id = {s.player_id: s for s in report.sessions}
        assert script.player_id in by_id
        recovered = by_id[script.player_id]
        assert recovered.cursor == 3
        assert recovered.digest == _reference_digest(classroom_game, script, 3)


class TestRecovery:
    def test_rebuilds_bit_identical_sessions(
        self, tmp_path, classroom_game, scripts
    ):
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        upto = {}
        for i, script in enumerate(scripts):
            upto[script.player_id] = min(2 + i, len(script.ops))
            _log_session(j, script, upto[script.player_id])
        j.sync(timeout=5.0)
        j.close()

        report = recover_shard(tmp_path, classroom_game)
        assert len(report.sessions) == len(scripts)
        assert report.ended_sessions == 0
        for session in report.sessions:
            script = next(
                s for s in scripts if s.player_id == session.player_id
            )
            n = upto[session.player_id]
            assert session.cursor == n
            assert session.digest == _reference_digest(classroom_game, script, n)

    def test_ended_sessions_not_rebuilt(self, tmp_path, classroom_game, scripts):
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        _log_session(j, scripts[0], len(scripts[0].ops), end=True)
        _log_session(j, scripts[1], 2)
        j.sync(timeout=5.0)
        j.close()
        report = recover_shard(tmp_path, classroom_game)
        assert report.ended_sessions == 1
        assert [s.player_id for s in report.sessions] == [scripts[1].player_id]

    def test_recovery_writes_fresh_snapshots(
        self, tmp_path, classroom_game, scripts
    ):
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        _log_session(j, scripts[0], 3)
        j.sync(timeout=5.0)
        j.close()
        recover_shard(tmp_path, classroom_game)
        store = SnapshotStore(snapshot_dir_for(tmp_path))
        loaded, _rejected = store.load_all()
        assert scripts[0].player_id in loaded

    def test_recovered_sessions_resume_to_reference_end(
        self, tmp_path, classroom_game, scripts
    ):
        """Stepping a recovered session forward matches a never-crashed run."""
        script = scripts[2]
        cut = len(script.ops) // 2
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        _log_session(j, script, cut)
        j.sync(timeout=5.0)
        j.close()
        report = recover_shard(tmp_path, classroom_game)
        (session,) = report.sessions
        engine = session.engine
        for op in script.ops[cut:]:
            apply_scripted_op(engine, op, script.dt)
        assert state_digest(engine.state) == _reference_digest(
            classroom_game, script, len(script.ops)
        )

    def test_empty_journal_dir_is_refused(self, tmp_path, classroom_game):
        # an existing-but-empty directory is a layout error (wrong
        # path, most likely), not a zero-session recovery; the genuine
        # fresh start is a directory that does not exist yet
        with pytest.raises(WalLayoutError, match="empty layout"):
            recover_shard(tmp_path, classroom_game)
        report = recover_shard(tmp_path / "fresh", classroom_game)
        assert report.sessions == [] and report.ended_sessions == 0
