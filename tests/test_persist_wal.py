"""Tests for the write-ahead log: framing, rotation, group commit."""

import struct
import threading

import pytest

from repro import obs
from repro.obs import logging as olog
from repro.persist import (
    Journal,
    PersistenceConfig,
    encode_frame,
    list_segments,
    read_segment,
    segment_first_lsn,
)
from repro.persist.records import PersistError


def _rec(i, sid="s"):
    return {"t": "input", "sid": sid, "op": {"k": "key", "key": str(i)}}


class TestFrameCodec:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seg.log"
        records = [{"t": "h", "seg": 1, "first": 1}, _rec(0), _rec(1)]
        path.write_bytes(b"".join(encode_frame(r) for r in records))
        parsed, valid, torn = read_segment(path)
        assert parsed == records
        assert valid == path.stat().st_size
        assert not torn

    def test_partial_tail_is_torn_not_fatal(self, tmp_path):
        path = tmp_path / "seg.log"
        good = encode_frame(_rec(0))
        path.write_bytes(good + encode_frame(_rec(1))[:-3])
        parsed, valid, torn = read_segment(path)
        assert parsed == [_rec(0)]
        assert valid == len(good)
        assert torn

    def test_crc_mismatch_is_torn(self, tmp_path):
        path = tmp_path / "seg.log"
        frame = bytearray(encode_frame(_rec(0)))
        frame[-1] ^= 0xFF  # flip a payload bit; CRC now lies
        path.write_bytes(bytes(frame))
        parsed, valid, torn = read_segment(path)
        assert parsed == [] and valid == 0 and torn

    def test_absurd_length_is_torn(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(struct.pack("<II", 2**31, 0) + b"xx")
        _parsed, valid, torn = read_segment(path)
        assert valid == 0 and torn


class TestJournal:
    def test_append_assigns_dense_lsns(self, tmp_path):
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        lsns = [j.append(_rec(i)) for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        assert j.sync(timeout=5.0)
        assert j.durable_lsn == 5
        j.close()
        records, _valid, torn = read_segment(list_segments(tmp_path)[0][1])
        assert not torn
        assert [r["n"] for r in records if r.get("t") != "h"] == lsns

    def test_sync_each_mode_is_durable_per_append(self, tmp_path):
        config = PersistenceConfig(directory=tmp_path, sync_each=True)
        j = Journal(tmp_path, config)
        lsn = j.append(_rec(0))
        assert j.durable_lsn == lsn  # no waiting needed
        j.close()

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        config = PersistenceConfig(directory=tmp_path)
        j = Journal(tmp_path, config)
        for i in range(3):
            j.append(_rec(i))
        j.close()
        j2 = Journal(tmp_path, config)
        assert j2.append(_rec(3)) == 4
        j2.close()

    def test_reopen_truncates_torn_tail(self, tmp_path):
        config = PersistenceConfig(directory=tmp_path)
        j = Journal(tmp_path, config)
        for i in range(3):
            j.append(_rec(i))
        j.sync(timeout=5.0)
        j.close()
        _seq, path = list_segments(tmp_path)[-1]
        clean_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef-torn")
        j2 = Journal(tmp_path, config)
        assert path.stat().st_size == clean_size  # tail cut back
        assert j2.append(_rec(3)) == 4  # sequence unharmed
        j2.sync(timeout=5.0)
        j2.close()
        records, _valid, torn = read_segment(path)
        assert not torn
        assert [r["n"] for r in records if r.get("t") != "h"] == [1, 2, 3, 4]

    def test_segment_rotation_and_headers(self, tmp_path):
        config = PersistenceConfig(
            directory=tmp_path, segment_max_bytes=4096, sync_each=True
        )
        j = Journal(tmp_path, config)
        for i in range(200):
            j.append(_rec(i, sid=f"player-{i % 7}"))
        j.close()
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        # Headers chain: segment i+1's first LSN continues segment i.
        last = 0
        for _seq, path in segments:
            first = segment_first_lsn(path)
            assert first == last + 1
            records, _valid, torn = read_segment(path)
            assert not torn
            data = [r["n"] for r in records if r.get("t") != "h"]
            assert data == list(range(first, first + len(data)))
            last = data[-1]
        assert last == 200

    def test_group_commit_batches_across_threads(self, tmp_path):
        config = PersistenceConfig(directory=tmp_path, group_window_s=0.005)
        j = Journal(tmp_path, config)
        done = []

        def commit(w):
            lsn = j.append(_rec(w, sid=f"w{w}"))
            assert j.wait_durable(lsn, timeout=10.0)
            done.append(lsn)

        threads = [threading.Thread(target=commit, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(done) == list(range(1, 9))
        j.close()

    def test_append_after_close_raises(self, tmp_path):
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        j.close()
        with pytest.raises(PersistError):
            j.append(_rec(0))

    def test_close_flushes_pending(self, tmp_path):
        config = PersistenceConfig(directory=tmp_path, group_window_s=0.5)
        j = Journal(tmp_path, config)
        lsns = [j.append(_rec(i)) for i in range(10)]
        j.close()  # must not lose the batch still inside the window
        records, _valid, torn = read_segment(list_segments(tmp_path)[0][1])
        assert not torn
        assert [r["n"] for r in records if r.get("t") != "h"] == lsns

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PersistenceConfig(directory=tmp_path, segment_max_bytes=16)
        with pytest.raises(ValueError):
            PersistenceConfig(directory=tmp_path, group_window_s=-1)
        with pytest.raises(ValueError):
            PersistenceConfig(directory=tmp_path, snapshot_every=-1)


class TestFlusherWakeup:
    def test_only_the_append_into_an_empty_queue_notifies(self, tmp_path):
        committed = []
        j = Journal(
            tmp_path, PersistenceConfig(directory=tmp_path, group_window_s=0.05),
            on_durable=committed.append,
        )
        appender = threading.get_ident()
        notifies = []
        real_notify_all = j._cond.notify_all

        def counting_notify_all():
            if threading.get_ident() == appender:
                notifies.append(j.last_assigned_lsn)
            real_notify_all()

        j._cond.notify_all = counting_notify_all
        lsns = [j.append(_rec(i)) for i in range(200)]
        # one wakeup, issued by the append (LSN 1) that found the queue
        # empty; the other 199 land while the flusher sleeps out its window
        assert notifies == [1]
        assert j.sync(timeout=5.0)
        j.close()
        assert committed == [lsns[-1]] == [200]  # one group commit


class TestDurableCallback:
    """``on_durable(lsn)``: fired once per commit with the new watermark."""

    @staticmethod
    def _recording_journal(tmp_path, **config):
        seen = []
        holder = {}

        def on_durable(lsn):
            journal = holder["j"]
            # never early: the watermark already covers lsn, and the
            # record is readable from the segment file
            assert journal.durable_lsn >= lsn
            records, _valid, _torn = read_segment(
                list_segments(tmp_path)[-1][1]
            )
            assert lsn in [r.get("n") for r in records]
            seen.append(lsn)

        journal = holder["j"] = Journal(
            tmp_path, PersistenceConfig(directory=tmp_path, **config),
            on_durable=on_durable,
        )
        return journal, seen

    def test_group_commit_reports_each_new_watermark(self, tmp_path):
        j, seen = self._recording_journal(tmp_path, group_window_s=0.001)
        for i in range(20):
            lsn = j.append(_rec(i))
            if i % 3 == 0:
                assert j.wait_durable(lsn, timeout=5.0)
        assert j.sync(timeout=5.0)
        j.close()
        assert seen, "no commit reported"
        assert seen == sorted(set(seen))  # strictly increasing
        assert seen[-1] == 20
        # every wait_durable'd LSN was covered by some reported commit
        assert all(any(s >= lsn for s in seen) for lsn in range(1, 21, 3))

    def test_sync_each_reports_every_append_in_order(self, tmp_path):
        j, seen = self._recording_journal(tmp_path, sync_each=True)
        lsns = [j.append(_rec(i)) for i in range(5)]
        j.close()
        assert seen == lsns == [1, 2, 3, 4, 5]

    def test_not_fired_before_the_commit_lands(self, tmp_path):
        j, seen = self._recording_journal(tmp_path, group_window_s=0.3)
        j.append(_rec(0))
        assert seen == [] and j.durable_lsn == 0  # still inside the window
        assert j.sync(timeout=5.0)
        # the callback runs just after the watermark is published, so
        # sync() may return first; close() joins the flusher
        j.close()
        assert seen == [1]

    def test_raising_callback_is_logged_not_fatal(self, tmp_path):
        calls = []

        def broken(lsn):
            calls.append(lsn)
            raise RuntimeError("hook exploded")

        was = obs.enabled()
        obs.enable()
        events = []
        sink = olog.add_log_sink(events.append)
        try:
            for config in ({"group_window_s": 0.001}, {"sync_each": True}):
                directory = tmp_path / ("sync" if config.get("sync_each")
                                        else "group")
                j = Journal(directory,
                            PersistenceConfig(directory=directory, **config),
                            label="7", on_durable=broken)
                first = j.append(_rec(0))
                assert j.wait_durable(first, timeout=5.0)
                assert not j.failed
                later = j.append(_rec(1))  # the flusher is still alive
                assert j.wait_durable(later, timeout=5.0)
                assert not j.failed
                j.close()
        finally:
            olog.remove_log_sink(sink)
            obs.set_enabled(was)
        assert calls and max(calls) == 2
        failures = [e for e in events if e["event"] == "repl.hook_failed"]
        assert len(failures) == len(calls)
        assert all(e["fields"]["shard"] == "7" for e in failures)

