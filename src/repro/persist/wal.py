"""Append-only write-ahead log with group commit and segment rotation.

The durability contract of the serving layer: every session mutation is
appended here *before* it is considered committed, so a crash loses at
most the records not yet fsynced: the batch in flight and the ones
queued behind it.

**Physical format.**  A journal is a directory of segment files
(``wal-00000001.log``, ``wal-00000002.log``, …).  Every record is a
length- and CRC32-framed JSON payload::

    +----------+----------+------------------+
    | u32 len  | u32 crc  |  payload (JSON)  |   little-endian header
    +----------+----------+------------------+

The first record of every segment is a header frame carrying the
segment sequence number and the LSN of the first data record it will
hold — that makes compaction (dropping whole segment files) a
header-only decision and keeps LSNs recoverable after a prefix of the
log has been deleted.  A torn tail (partial frame, CRC mismatch,
unparseable payload) ends the readable log; readers report the valid
byte length so recovery can truncate exactly there.

**Group commit.**  ``append()`` assigns an LSN and enqueues the frame.
A flusher thread takes everything pending the moment it is idle,
writes it with one ``write``/``fsync`` pair, advances the durable
watermark and calls ``on_durable(lsn)``.  Records appended while that
write and fsync are in flight form the next batch, so under load the
batch grows with the fsync's own cost and no timer is involved.  An
append wakes only an idle flusher: the one append that finds the queue
empty notifies it, and the rest land behind it undisturbed.  The most
extra latency a record pays for amortising the fsync is one in-flight
write+fsync; throughput under load scales with the batch size
(benchmarked against ``benchmarks/bench_persist.py``'s per-record
fsync).  ``sync_each=True`` is that fsync-per-append baseline.

The journal is intentionally single-writer: one serve shard owns one
journal, so appends never contend across shards.
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, sleep
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .. import faultline as _fl
from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import span as _span
from .records import PersistError

__all__ = [
    "Journal",
    "PersistenceConfig",
    "decode_frames",
    "encode_frame",
    "list_segments",
    "list_shard_dirs",
    "read_segment",
    "segment_first_lsn",
    "segment_path",
]

_FRAME = struct.Struct("<II")
#: sanity bound: no legitimate record is this large
MAX_RECORD_BYTES = 16 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")
_SHARD_RE = re.compile(r"^shard-(\d+)$")

_M_COMMIT = _obs.histogram(
    "repro_persist_commit_seconds",
    "Enqueue-to-durable latency of a group commit (oldest record in batch)",
)
_M_GROUP = _obs.histogram(
    "repro_persist_group_size",
    "Records made durable per fsync (group-commit batch size)",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
)
_M_RECORDS = _obs.counter(
    "repro_persist_records_total",
    "WAL records appended, by shard journal",
)
_M_BYTES = _obs.counter(
    "repro_persist_bytes_total",
    "WAL bytes written (frames, including segment headers)",
)
_M_FSYNC = _obs.counter(
    "repro_persist_fsyncs_total",
    "fsync calls issued by journals",
)
_M_ROTATED = _obs.counter(
    "repro_persist_segments_rotated_total",
    "WAL segments sealed because they reached segment_max_bytes",
)
_M_FAILURES = _obs.counter(
    "repro_persist_journal_failures_total",
    "Journals that died on a write/fsync error",
)
#: shared with recovery: incremented wherever a torn tail is truncated
_M_TORN = _obs.counter(
    "repro_persist_torn_records_total",
    "Torn/corrupt WAL tail frames detected (and truncated at recovery)",
)

_LOG = _obslog.get_logger("persist")

#: opens a segment file for appending; injectable for fault tests
FileFactory = Callable[[Path], Any]


@dataclass(frozen=True, slots=True)
class PersistenceConfig:
    """Knobs of the durability subsystem (per shard journal)."""

    #: root directory; each serve shard journals under ``shard-NN/``
    directory: Union[str, Path]
    #: seal the active segment and start a new one past this size
    segment_max_bytes: int = 1 << 20
    #: fsync on every append instead of group commit (baseline mode)
    sync_each: bool = False
    #: snapshot a session every N applied ops (0 = never)
    snapshot_every: int = 64
    #: drop WAL segments fully covered by snapshots after each snapshot
    compact: bool = True
    #: opt-in quorum commit: a finished session's END goes out only
    #: once this many standbys have acked its end record,
    #: i.e. fsynced the shipped batch holding it into their mirrors.
    #: 0 keeps durability primary-local; without an attached
    #: replication source (the ack ledger) the knob is inert.
    quorum_standbys: int = 0

    def __post_init__(self) -> None:
        if self.segment_max_bytes < 4096:
            raise ValueError("segment_max_bytes must be >= 4096")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.quorum_standbys < 0:
            raise ValueError("quorum_standbys must be >= 0")

    def shard_dir(self, shard_index: int) -> Path:
        """Where shard ``shard_index`` keeps its journal + snapshots."""
        return Path(self.directory) / f"shard-{shard_index:02d}"


# ----------------------------------------------------------------------
# Frame codec + segment readers (recovery, inspection, the replication
# tailer)
# ----------------------------------------------------------------------

def encode_frame(record: Dict[str, Any]) -> bytes:
    """Frame one JSON record: ``u32 len | u32 crc32 | payload``."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def segment_path(directory: Path, seq: int) -> Path:
    return Path(directory) / f"wal-{seq:08d}.log"


def list_segments(directory: Union[str, Path]) -> List[Tuple[int, Path]]:
    """(seq, path) pairs of all segments in a journal dir, in order."""
    out: List[Tuple[int, Path]] = []
    directory = Path(directory)
    if not directory.is_dir():
        return out
    for path in directory.iterdir():
        m = _SEGMENT_RE.match(path.name)
        if m:
            out.append((int(m.group(1)), path))
    out.sort()
    return out


def decode_frames(data: bytes) -> Iterator[Tuple[Dict[str, Any], int]]:
    """The one WAL frame decoder: ``(record, end)`` per valid frame.

    Walks ``data`` (a segment, or the part of one past a reader's byte
    offset) and stops at the first frame that is incomplete or invalid
    — zero length, over ``MAX_RECORD_BYTES``, CRC mismatch, bad JSON or
    a non-object payload.  ``end`` is the byte offset just past the
    frame, so the last one yielded is where the valid prefix ends.
    Whether the rest is a torn tail (recovery) or a frame still being
    written (the replication tailer) is the caller's call.
    """
    offset = 0
    n = len(data)
    while offset + _FRAME.size <= n:
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if length == 0 or length > MAX_RECORD_BYTES or end > n:
            return
        payload = data[offset + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:  # includes UnicodeDecodeError
            return
        if not isinstance(record, dict):
            return
        yield record, end
        offset = end


def read_segment(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Parse one segment file.

    Returns ``(records, valid_bytes, torn)`` where ``records`` includes
    the segment-header record, ``valid_bytes`` is the byte offset of the
    first invalid frame (== file size when clean) and ``torn`` is True
    when the file ends in a partial/corrupt frame.  Reading never
    raises on corruption — a torn tail is data, not an error.
    """
    data = Path(path).read_bytes()
    records: List[Dict[str, Any]] = []
    valid = 0
    for record, valid in decode_frames(data):
        records.append(record)
    return records, valid, valid != len(data)


def segment_first_lsn(path: Union[str, Path]) -> Optional[int]:
    """First data LSN a segment holds, from its header frame (or None).

    Reads the header frame only, however long the segment is.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(_FRAME.size)
            if len(data) == _FRAME.size:
                length, _crc = _FRAME.unpack(data)
                if length <= MAX_RECORD_BYTES:
                    data += fh.read(length)
    except OSError:
        return None
    for record, _end in decode_frames(data):
        if record.get("t") == "h":
            return int(record.get("first", 0)) or None
    return None


def list_shard_dirs(root: Union[str, Path]) -> List[Tuple[int, Path]]:
    """(index, path) of every ``shard-NN`` journal directory under a
    persistence root, by index; the index is the one in the name."""
    out: List[Tuple[int, Path]] = []
    root = Path(root)
    if not root.is_dir():
        return out
    for path in root.iterdir():
        m = _SHARD_RE.match(path.name)
        if m and path.is_dir():
            out.append((int(m.group(1)), path))
    out.sort()
    return out


def _default_open(path: Path) -> Any:
    return open(path, "ab")


def _fsync_file(fh: Any, label: str = "0") -> None:
    """fsync a file object; honours an injected ``fsync`` hook."""
    fh.flush()
    if _fl.ACTIVE:
        action = _fl.fire("wal.fsync", shard=label)
        if action is not None:
            if action.seconds > 0:
                # a stalling device: the data lands, late
                sleep(action.seconds)
            if action.kind == "error":
                raise OSError("faultline: injected fsync failure")
    fsync = getattr(fh, "fsync", None)
    if fsync is not None:
        fsync()
    else:
        os.fsync(fh.fileno())


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

class Journal:
    """One shard's append-only log; single logical writer, group commit.

    ``append()`` may be called from any thread (it only enqueues); the
    flusher thread owns all file IO.  With ``sync_each=True`` there is
    no flusher and appends write + fsync inline — the deliberately slow
    baseline the persistence benchmark compares against.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        config: Optional[PersistenceConfig] = None,
        label: str = "0",
        file_factory: Optional[FileFactory] = None,
        on_durable: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config or PersistenceConfig(directory=self.directory)
        self.label = label
        self._open_file = file_factory or _default_open
        self._on_durable = on_durable
        self._cond = threading.Condition()
        self._pending: List[Tuple[int, bytes, float]] = []
        self._durable = 0
        self._next_lsn = 1
        self._stop = False
        self._closed = False
        self._failed: Optional[BaseException] = None
        self._fh: Any = None
        self._seq = 0
        self._size = 0
        self._segment_has_data = False
        self._attach_tip()
        self._flusher: Optional[threading.Thread] = None
        if not self.config.sync_each:
            self._flusher = threading.Thread(
                target=self._flush_loop,
                name=f"repro-persist-flusher-{label}",
                daemon=True,
            )
            self._flusher.start()

    # -- startup: continue an existing log, truncating any torn tail ----
    def _attach_tip(self) -> None:
        segments = list_segments(self.directory)
        if not segments:
            self._open_segment(seq=1, first_lsn=1)
            return
        seq, path = segments[-1]
        records, valid, torn = read_segment(path)
        if torn:
            os.truncate(path, valid)
            _M_TORN.inc(shard=self.label)
            _LOG.warning("persist.torn_tail_truncated", shard=self.label,
                         segment=path.name, valid_bytes=valid)
        next_lsn = None
        has_data = False
        for record in records:
            if record.get("t") == "h":
                next_lsn = int(record.get("first", 1))
            elif "n" in record:
                next_lsn = int(record["n"]) + 1
                has_data = True
        self._next_lsn = next_lsn if next_lsn is not None else 1
        self._durable = self._next_lsn - 1
        self._seq = seq
        self._size = valid
        self._segment_has_data = has_data
        self._fh = self._open_file(path)

    def _open_segment(self, seq: int, first_lsn: int) -> None:
        path = segment_path(self.directory, seq)
        self._fh = self._open_file(path)
        self._seq = seq
        self._size = 0
        self._segment_has_data = False
        header = encode_frame({"t": "h", "seg": seq, "first": first_lsn})
        self._fh.write(header)
        _fsync_file(self._fh, self.label)
        self._size = len(header)
        if _obs.enabled():
            _M_BYTES.inc(len(header), shard=self.label)
            _M_FSYNC.inc(shard=self.label)

    # -- public API ------------------------------------------------------
    @property
    def durable_lsn(self) -> int:
        """Highest LSN guaranteed on disk."""
        return self._durable

    @property
    def last_assigned_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def failed(self) -> bool:
        return self._failed is not None

    def append(self, record: Dict[str, Any]) -> int:
        """Stamp an LSN onto ``record`` and enqueue it; returns the LSN.

        Group-commit mode returns immediately (``on_durable``,
        :meth:`wait_durable` or :meth:`sync` tell when it is durable);
        ``sync_each`` mode returns only after the record is fsynced.
        """
        with self._cond:
            if self._closed:
                raise PersistError("journal is closed")
            if self._failed is not None:
                raise PersistError(f"journal failed: {self._failed!r}")
            lsn = self._next_lsn
            self._next_lsn += 1
            stamped = dict(record)
            stamped["n"] = lsn
            frame = encode_frame(stamped)
            if self.config.sync_each:
                t0 = monotonic()
                try:
                    self._write_batch([(lsn, frame)])
                    _fsync_file(self._fh, self.label)
                except Exception as exc:
                    self._mark_failed(exc)
                    raise PersistError(f"journal failed: {exc!r}") from exc
                self._committed(lsn, 1, t0)
            else:
                # Only an idle flusher needs waking: with records
                # already pending it has been woken, or is writing the
                # previous batch, and will take this one with the rest.
                if not self._pending:
                    self._cond.notify_all()
                self._pending.append((lsn, frame, monotonic()))
        return lsn

    def wait_durable(self, lsn: int, timeout: Optional[float] = None) -> bool:
        """Block until ``lsn`` is fsynced here; False on timeout or
        failure.  Standby quorum is not this journal's business: a
        :class:`~repro.persist.gate.DurableGate` adds that wait."""
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            while self._durable < lsn:
                if self._failed is not None or self._closed:
                    return self._durable >= lsn
                if deadline is None:
                    self._cond.wait(0.1)
                else:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
        return True

    def sync(self, timeout: Optional[float] = None) -> bool:
        """Flush everything appended so far; True when all durable."""
        with self._cond:
            target = self._next_lsn - 1
        return self.wait_durable(target, timeout)

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Flush pending records, fsync and close (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._stop = True
            self._cond.notify_all()
        if self._flusher is not None:
            self._flusher.join(timeout=timeout)
        with self._cond:
            leftovers = self._pending
            self._pending = []
            self._closed = True
            self._cond.notify_all()
        if self._fh is not None:
            if leftovers and self._failed is None:
                # The flusher died without draining (join timeout);
                # write the tail ourselves rather than lose it.
                try:
                    self._write_batch([(lsn, fr) for lsn, fr, _ in leftovers])
                    _fsync_file(self._fh, self.label)
                    self._committed(leftovers[-1][0], len(leftovers),
                                    leftovers[0][2])
                except Exception as exc:  # pragma: no cover - disk death
                    self._mark_failed(exc)
            try:
                self._fh.close()
            except Exception:  # pragma: no cover - disk death
                pass
            self._fh = None

    # -- internals --------------------------------------------------------
    def _committed(self, lsn: int, records: int, since: float) -> None:
        """Publish ``lsn`` as durable, call ``on_durable(lsn)``, count
        the commit.  The callback runs outside the lock (``sync_each``'s
        append holds it throughout); one that raises is logged as
        ``repl.hook_failed`` and never fails the journal."""
        done_at = monotonic()
        with self._cond:
            self._durable = lsn
            self._cond.notify_all()
        if self._on_durable is not None:
            try:
                self._on_durable(lsn)
            except Exception as exc:
                _LOG.warning("repl.hook_failed", shard=self.label, lsn=lsn,
                             error=repr(exc))
        if _obs.enabled():
            _M_FSYNC.inc(shard=self.label)
            _M_GROUP.observe(records, shard=self.label)
            _M_COMMIT.observe(done_at - since, shard=self.label)

    def _mark_failed(self, exc: BaseException) -> None:
        self._failed = exc
        _M_FAILURES.inc(shard=self.label)
        _LOG.error("persist.journal_failed", shard=self.label, error=repr(exc))

    def _fault_write(self, frame: bytes) -> None:
        """Faultline's ``wal.write`` hook: tear the tail, then die.

        A torn write leaves a prefix of the frame on disk (flushed so
        it is really there for recovery to find) and raises — the
        journal fails exactly like it does on device death, and the
        disorderly tail is what recovery must truncate and count.
        """
        action = _fl.fire("wal.write", shard=self.label)
        if action is None:
            return
        if action.kind in ("torn_write", "short_write"):
            if action.kind == "short_write":
                cut = _FRAME.size  # header only, payload lost
            else:
                cut = max(_FRAME.size + 1, int(len(frame) * action.fraction))
            cut = min(cut, len(frame) - 1)
            self._fh.write(frame[:cut])
            self._fh.flush()
            raise OSError(
                f"faultline: injected {action.kind} "
                f"({cut}/{len(frame)} bytes reached the disk)"
            )
        raise OSError("faultline: injected write failure")

    def _write_batch(self, batch: List[Tuple[int, bytes]]) -> None:
        """Write frames, rotating segments by size; no fsync here."""
        for lsn, frame in batch:
            if (
                self._segment_has_data
                and self._size + len(frame) > self.config.segment_max_bytes
            ):
                _fsync_file(self._fh, self.label)
                self._fh.close()
                self._open_segment(self._seq + 1, first_lsn=lsn)
                if _obs.enabled():
                    _M_ROTATED.inc(shard=self.label)
                    _M_FSYNC.inc(shard=self.label)
            if _fl.ACTIVE:
                self._fault_write(frame)
            self._fh.write(frame)
            self._size += len(frame)
            self._segment_has_data = True
        if _obs.enabled():
            _M_RECORDS.inc(len(batch), shard=self.label)
            _M_BYTES.inc(sum(len(fr) for _, fr in batch), shard=self.label)

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait(0.05)
                if not self._pending:
                    return
                batch = self._pending
                self._pending = []
            try:
                # One span per fsync batch: it ties a slow commit to
                # its batch size and shard in the flight recorder.
                with _span("wal.group_commit", shard=self.label,
                           batch=len(batch)):
                    self._write_batch([(lsn, fr) for lsn, fr, _ in batch])
                    _fsync_file(self._fh, self.label)
            except Exception as exc:
                with self._cond:
                    self._mark_failed(exc)
                    self._cond.notify_all()
                return
            self._committed(batch[-1][0], len(batch), batch[0][2])
