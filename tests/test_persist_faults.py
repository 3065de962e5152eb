"""Fault injection: torn tails, corrupt frames, and dying fsyncs.

The durability claim under test: after a hard crash, recovery rebuilds
at least 99% of the sessions whose records were committed (fsynced)
before the crash, bit-identically to a never-crashed reference replay,
and every torn record is detected and counted rather than silently
swallowed.
"""

import os

import pytest

from repro import obs
from repro.persist import (
    Journal,
    PersistenceConfig,
    input_record,
    list_segments,
    recover_shard,
    scan_journal,
    start_record,
    state_digest,
)
from repro.persist.records import PersistError, apply_scripted_op
from repro.students import cohort_scripts
from repro.video.player import SimulatedClock


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 8, seed=23)


class FaultyFile:
    """An appendable file that can tear its tail or die mid-fsync."""

    def __init__(self, path, die_on_fsync_call=None):
        self._fh = open(path, "ab")
        self._die_on = die_on_fsync_call
        self.fsync_calls = 0

    def write(self, data):
        return self._fh.write(data)

    def flush(self):
        self._fh.flush()

    def fsync(self):
        self.fsync_calls += 1
        if self._die_on is not None and self.fsync_calls >= self._die_on:
            # Crash *before* the data hits the platter: nothing past the
            # previous fsync may be assumed durable.
            raise OSError("simulated device death mid-fsync")
        os.fsync(self._fh.fileno())

    def fileno(self):
        return self._fh.fileno()

    def close(self):
        self._fh.close()


def _reference_digest(game, script, upto):
    engine = game.new_engine(clock=SimulatedClock(0.0), with_video=False)
    engine.start()
    for op in script.ops[:upto]:
        apply_scripted_op(engine, op, script.dt)
    return state_digest(engine.state)


def _commit_cohort(journal, scripts, upto=4):
    """Start + ``upto`` inputs per script, all made durable."""
    committed = {}
    for script in scripts:
        journal.append(start_record(script.player_id, script.dt, script.ops))
        n = min(upto, len(script.ops))
        for op in script.ops[:n]:
            journal.append(input_record(script.player_id, op))
        committed[script.player_id] = n
    assert journal.sync(timeout=10.0)
    return committed


class TestTornTailRecovery:
    def test_crash_tail_recovers_all_committed_sessions(
        self, tmp_path, classroom_game, scripts
    ):
        config = PersistenceConfig(directory=tmp_path)
        journal = Journal(tmp_path, config)
        committed = _commit_cohort(journal, scripts)
        journal.close()

        # The crash: a record was mid-write when the process died, so
        # the segment ends in a partial frame.
        _seq, path = list_segments(tmp_path)[-1]
        with open(path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00\xaa\xbb partial frame, no CRC")

        report = recover_shard(tmp_path, classroom_game)
        assert report.torn_records == 1
        assert report.discarded_bytes > 0

        identical = 0
        for session in report.sessions:
            script = next(
                s for s in scripts if s.player_id == session.player_id
            )
            assert session.cursor == committed[session.player_id]
            if session.digest == _reference_digest(
                classroom_game, script, session.cursor
            ):
                identical += 1
        assert len(report.sessions) == len(scripts)
        assert identical / len(scripts) >= 0.99

    def test_corrupted_committed_record_loses_only_its_suffix(
        self, tmp_path, classroom_game, scripts
    ):
        """Bit rot inside the committed log: sessions before the flip
        recover fully; the log is cut at the flip, not abandoned."""
        config = PersistenceConfig(directory=tmp_path, sync_each=True)
        journal = Journal(tmp_path, config)
        committed = _commit_cohort(journal, scripts)
        journal.close()

        _seq, path = list_segments(tmp_path)[-1]
        data = bytearray(path.read_bytes())
        flip_at = int(len(data) * 0.9)  # inside the last ~10% of records
        data[flip_at] ^= 0xFF
        path.write_bytes(bytes(data))

        report = recover_shard(tmp_path, classroom_game)
        assert report.torn_records == 1
        # Every session the surviving prefix covers is bit-identical;
        # sessions whose later inputs were cut resume at an earlier
        # cursor but still at a reference-identical state.
        identical = 0
        for session in report.sessions:
            script = next(
                s for s in scripts if s.player_id == session.player_id
            )
            assert session.cursor <= committed[session.player_id]
            if session.digest == _reference_digest(
                classroom_game, script, session.cursor
            ):
                identical += 1
        # The flip can cut at most the tail session's records entirely.
        assert len(report.sessions) >= len(scripts) - 1
        assert identical / len(report.sessions) >= 0.99

        # Recovery truncated; a re-scan sees a clean journal.
        assert scan_journal(tmp_path).torn_records == 0

    def test_torn_records_counted_in_metrics(
        self, tmp_path, classroom_game, scripts
    ):
        was = obs.enabled()
        obs.enable()
        try:
            metric = obs.get_registry().get("repro_persist_torn_records_total")
            before = metric.value() if metric is not None else 0
            config = PersistenceConfig(directory=tmp_path)
            journal = Journal(tmp_path, config)
            _commit_cohort(journal, scripts[:2])
            journal.close()
            _seq, path = list_segments(tmp_path)[-1]
            with open(path, "ab") as fh:
                fh.write(b"\x08\x00\x00\x00\x00\x00\x00\x00torn")
            recover_shard(tmp_path, classroom_game)
            metric = obs.get_registry().get("repro_persist_torn_records_total")
            assert metric.value() == before + 1
        finally:
            obs.set_enabled(was)


class TestDyingFsync:
    def test_sync_each_append_surfaces_failure(self, tmp_path, scripts):
        config = PersistenceConfig(directory=tmp_path, sync_each=True)
        journal = Journal(
            tmp_path, config,
            # Call 1 is the segment-header fsync; die on the 3rd.
            file_factory=lambda p: FaultyFile(p, die_on_fsync_call=3),
        )
        script = scripts[0]
        journal.append(start_record(script.player_id, script.dt, script.ops))
        with pytest.raises(PersistError):
            journal.append(input_record(script.player_id, script.ops[0]))
        assert journal.failed
        with pytest.raises(PersistError):  # failure is sticky
            journal.append(input_record(script.player_id, script.ops[0]))
        journal.close()

    def test_group_commit_failure_unblocks_waiters(self, tmp_path, scripts):
        config = PersistenceConfig(directory=tmp_path)
        journal = Journal(
            tmp_path, config,
            file_factory=lambda p: FaultyFile(p, die_on_fsync_call=2),
        )
        script = scripts[0]
        lsn = journal.append(
            start_record(script.player_id, script.dt, script.ops)
        )
        # The flusher dies on this batch; the waiter must not hang.
        assert journal.wait_durable(lsn, timeout=10.0) is False
        assert journal.failed
        journal.close()

    def test_crash_before_fsync_loses_only_unsynced_suffix(
        self, tmp_path, classroom_game, scripts
    ):
        """Records appended but never fsynced may vanish; records synced
        before the device died must all recover."""
        config = PersistenceConfig(directory=tmp_path)
        journal = Journal(tmp_path, config)
        committed = _commit_cohort(journal, scripts[:4])

        # These appends are enqueued after the device dies mid-fsync:
        # the journal fails instead of pretending they are durable.
        journal._open_file = lambda p: FaultyFile(p, die_on_fsync_call=1)
        fh = journal._fh
        journal._fh = FaultyFile(
            list_segments(tmp_path)[-1][1], die_on_fsync_call=1
        )
        fh.close()
        for script in scripts[4:]:
            try:
                journal.append(
                    start_record(script.player_id, script.dt, script.ops)
                )
            except PersistError:
                break
        journal.sync(timeout=5.0)
        journal.close()

        report = recover_shard(tmp_path, classroom_game)
        recovered = {s.player_id for s in report.sessions}
        for script in scripts[:4]:  # everything fsynced survives
            assert script.player_id in recovered
        for session in report.sessions:
            if session.player_id in committed:
                script = next(
                    s for s in scripts if s.player_id == session.player_id
                )
                assert session.digest == _reference_digest(
                    classroom_game, script, session.cursor
                )
