"""Tests for the write-ahead log: framing, rotation, group commit."""

import os
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
    scan_journal,
    segment_first_lsn,
)
from repro.persist.records import PersistError
from repro.replicate.source import _Tailer


def _rec(i, sid="s"):
    return {"t": "input", "sid": sid, "op": {"k": "key", "key": str(i)}}


class HeldFsync:
    """A ``file_factory`` whose fsyncs, once ``armed``, each count
    themselves, set ``entered`` and block until ``release`` is set.

    The flusher holds no lock while it writes and fsyncs, so a test can
    append behind a held fsync and know which batch each record joins
    without sleeping.  Arm it after the journal is built: the segment
    header's fsync runs in the constructor.
    """

    def __init__(self):
        self.armed = False
        self.fsyncs = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, path):
        return _HeldFile(path, self)


class _HeldFile:
    def __init__(self, path, held):
        self._fh = open(path, "ab")
        self._held = held

    def write(self, data):
        return self._fh.write(data)

    def flush(self):
        self._fh.flush()

    def fsync(self):
        held = self._held
        if held.armed:
            held.fsyncs += 1
            held.entered.set()
            held.release.wait(10.0)
        os.fsync(self._fh.fileno())

    def close(self):
        self._fh.close()


def _data_lsns(directory):
    records, _valid, torn = read_segment(list_segments(directory)[0][1])
    assert not torn
    return [r["n"] for r in records if r.get("t") != "h"]


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


def _stamped(i):
    return dict(_rec(i), n=i + 1)


#: what can follow the valid prefix of a segment; every reader stops there
TORN_TAILS = {
    "partial_tail": encode_frame(_stamped(2))[:-3],
    "crc_mismatch": encode_frame(_stamped(2))[:-1] + b"\x00",  # was "}"
    "absurd_length": struct.pack("<II", 2**31, 0) + b"xx",
}


def _one_segment_journal(directory, tail=b""):
    """A journal dir holding one segment: header, two records, ``tail``."""
    records = [_stamped(0), _stamped(1)]
    frames = [encode_frame({"t": "h", "seg": 1, "first": 1})]
    frames += [encode_frame(r) for r in records]
    (directory / "wal-00000001.log").write_bytes(b"".join(frames) + tail)
    return records


def _scan(directory):
    return scan_journal(directory).records


def _tail(directory):
    return _Tailer(directory, 1).read_batch(1000)


class TestReadersAgree:
    """Recovery's scan and the replication tailer decode frames with the
    one decoder, so they keep the same records."""

    @pytest.mark.parametrize("reader", [_scan, _tail],
                             ids=["scan_journal", "tailer"])
    @pytest.mark.parametrize("tail", sorted(TORN_TAILS))
    def test_torn_tail_keeps_the_valid_prefix(self, tmp_path, reader, tail):
        kept = _one_segment_journal(tmp_path, TORN_TAILS[tail])
        assert reader(tmp_path) == kept

    def test_tailer_picks_up_a_partial_frame_once_it_lands(self, tmp_path):
        third = encode_frame(_stamped(2))
        records = _one_segment_journal(tmp_path, third[:-3])
        tailer = _Tailer(tmp_path, 1)
        assert tailer.read_batch(100) == records
        assert tailer.read_batch(100) == []  # waits, does not skip
        with open(tmp_path / "wal-00000001.log", "ab") as fh:
            fh.write(third[-3:])
        assert tailer.read_batch(100) == [_stamped(2)]
        assert _scan(tmp_path) == records + [_stamped(2)]

    def test_tailer_follows_rotation_but_not_past_a_torn_segment(
        self, tmp_path
    ):
        config = PersistenceConfig(
            directory=tmp_path, segment_max_bytes=4096, sync_each=True
        )
        j = Journal(tmp_path, config)
        for i in range(200):
            j.append(_rec(i))
        j.close()
        segments = list_segments(tmp_path)
        assert len(segments) > 2
        assert _tail(tmp_path) == _scan(tmp_path)
        assert [r["n"] for r in _tail(tmp_path)] == list(range(1, 201))
        # a tear in a sealed segment ends the log for both readers
        with open(segments[0][1], "ab") as fh:
            fh.write(TORN_TAILS["partial_tail"])
        kept = _scan(tmp_path)
        assert kept == [r for r in read_segment(segments[0][1])[0]
                        if r.get("t") != "h"]
        assert _tail(tmp_path) == kept


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
        # Records appended from several threads while fsync #1 is in
        # flight all share the next fsync.
        held = HeldFsync()
        committed = []
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path),
                    file_factory=held, on_durable=committed.append)
        held.armed = True
        assert j.append(_rec(0)) == 1
        assert held.entered.wait(5.0)

        def append_ten(w):
            for i in range(10):
                j.append(_rec(i, sid=f"w{w}"))

        threads = [threading.Thread(target=append_ten, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        held.release.set()
        assert j.sync(timeout=5.0)
        j.close()
        assert committed == [1, 81]
        assert held.fsyncs == 2
        assert _data_lsns(tmp_path) == list(range(1, 82))

    def test_append_after_close_raises(self, tmp_path):
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path))
        j.close()
        with pytest.raises(PersistError):
            j.append(_rec(0))

    def test_close_flushes_pending(self, tmp_path):
        # close() started while an fsync is held loses neither the batch
        # in flight nor the records queued behind it.
        held = HeldFsync()
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path),
                    file_factory=held)
        held.armed = True
        lsns = [j.append(_rec(0))]
        assert held.entered.wait(5.0)
        lsns += [j.append(_rec(i)) for i in range(1, 10)]
        joining = threading.Event()
        flusher_join = j._flusher.join

        def join(timeout=None):
            joining.set()  # close() has already asked the flusher to stop
            flusher_join(timeout)

        j._flusher.join = join
        closer = threading.Thread(target=j.close)
        closer.start()
        assert joining.wait(5.0)
        held.release.set()
        closer.join(10.0)
        assert not closer.is_alive()
        assert not j.failed
        assert lsns == list(range(1, 11))
        assert _data_lsns(tmp_path) == lsns

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PersistenceConfig(directory=tmp_path, segment_max_bytes=16)
        with pytest.raises(ValueError):
            PersistenceConfig(directory=tmp_path, snapshot_every=-1)


class TestFlusherWakeup:
    def test_an_append_to_an_idle_journal_is_written_at_once(self, tmp_path):
        held = HeldFsync()
        j = Journal(tmp_path, PersistenceConfig(directory=tmp_path),
                    file_factory=held)
        held.armed = True
        j.append(_rec(0))
        # no second append, sync() or close(): the lone record is
        # already being fsynced
        assert held.entered.wait(5.0)
        held.release.set()
        assert j.sync(timeout=5.0)
        j.close()
        assert held.fsyncs == 1

    def test_only_the_append_into_an_empty_queue_notifies(self, tmp_path):
        held = HeldFsync()
        committed = []
        j = Journal(
            tmp_path, PersistenceConfig(directory=tmp_path),
            file_factory=held, on_durable=committed.append,
        )
        held.armed = True
        appender = threading.get_ident()
        notifies = []
        real_notify_all = j._cond.notify_all

        def counting_notify_all():
            if threading.get_ident() == appender:
                notifies.append(j.last_assigned_lsn)
            real_notify_all()

        j._cond.notify_all = counting_notify_all
        lsns = [j.append(_rec(0))]
        assert held.entered.wait(5.0)  # the flusher took LSN 1 alone
        lsns += [j.append(_rec(i)) for i in range(1, 200)]
        # LSN 1 found the queue empty, and so did LSN 2 behind the held
        # fsync; the other 198 joined a non-empty queue
        assert notifies == [1, 2]
        held.release.set()
        assert j.sync(timeout=5.0)
        j.close()
        assert committed == [1, lsns[-1]] == [1, 200]


class TestDurableCallback:
    """``on_durable(lsn)``: fired once per commit with the new watermark."""

    @staticmethod
    def _recording_journal(tmp_path, file_factory=None, **config):
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
            file_factory=file_factory, on_durable=on_durable,
        )
        return journal, seen

    def test_group_commit_reports_each_new_watermark(self, tmp_path):
        j, seen = self._recording_journal(tmp_path)
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
        held = HeldFsync()
        j, seen = self._recording_journal(tmp_path, file_factory=held)
        held.armed = True
        j.append(_rec(0))
        assert held.entered.wait(5.0)
        # written but not yet fsynced: nothing may call it durable
        assert seen == [] and j.durable_lsn == 0
        assert not j.wait_durable(1, timeout=0)
        held.release.set()
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
            for config in ({}, {"sync_each": True}):
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

