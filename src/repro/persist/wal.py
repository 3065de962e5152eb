"""Append-only write-ahead log with group commit and segment rotation.

The durability contract of the serving layer: every session mutation is
appended here *before* it is considered committed, so a crash loses at
most the records not yet fsynced (bounded by the group-commit window).

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

**Group commit.**  ``append()`` assigns an LSN and enqueues the frame;
a flusher thread batches everything enqueued across sessions — waiting
at most ``group_window_s`` to let a batch build — writes it with one
``write``/``fsync`` pair, advances the durable watermark and calls
``on_durable(lsn)``.  An append wakes only an idle flusher: the one
append that finds the queue empty notifies it, and the rest of the
batch lands while it sleeps out its window undisturbed.  The window is
the maximum extra latency any record pays for amortising the fsync;
throughput under load scales with the batch size (benchmarked against
``benchmarks/bench_persist.py``'s per-record fsync).  ``sync_each=True``
is that fsync-per-append baseline.

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
from time import monotonic, perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .. import faultline as _fl
from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import span as _span
from .records import PersistError

__all__ = [
    "Journal",
    "PersistenceConfig",
    "encode_frame",
    "list_segments",
    "read_segment",
    "segment_first_lsn",
    "segment_path",
]

_FRAME = struct.Struct("<II")
#: sanity bound: no legitimate record is this large
MAX_RECORD_BYTES = 16 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

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
_M_QUORUM_WAIT = _obs.histogram(
    "repro_quorum_wait_seconds",
    "Extra wait for standby quorum after local durability, per record",
)
_M_QUORUM_TIMEOUT = _obs.counter(
    "repro_quorum_timeouts_total",
    "wait_durable calls that were locally durable but never reached "
    "standby quorum, by shard journal",
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
    #: max extra latency the group-commit flusher waits to build a batch
    group_window_s: float = 0.002
    #: fsync on every append instead of group commit (baseline mode)
    sync_each: bool = False
    #: snapshot a session every N logged input records (0 = never)
    snapshot_every: int = 64
    #: drop WAL segments fully covered by snapshots after each snapshot
    compact: bool = True
    #: opt-in quorum commit: ``wait_durable`` resolves only once this
    #: many subscribed standbys have mirrored (fsynced) the COMMIT
    #: watermark for the LSN.  0 keeps durability primary-local.  The
    #: replication source installs the actual barrier at attach time
    #: (:meth:`Journal.set_quorum`); without one the knob is inert.
    quorum_standbys: int = 0
    #: extra time ``wait_durable`` grants the quorum barrier on top of
    #: local durability before declaring a quorum timeout
    quorum_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.segment_max_bytes < 4096:
            raise ValueError("segment_max_bytes must be >= 4096")
        if self.group_window_s < 0:
            raise ValueError("group_window_s must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.quorum_standbys < 0:
            raise ValueError("quorum_standbys must be >= 0")
        if self.quorum_timeout_s <= 0:
            raise ValueError("quorum_timeout_s must be positive")

    def shard_dir(self, shard_index: int) -> Path:
        """Where shard ``shard_index`` keeps its journal + snapshots."""
        return Path(self.directory) / f"shard-{shard_index:02d}"


# ----------------------------------------------------------------------
# Frame codec + segment readers (shared with recovery / inspection)
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
    off = 0
    n = len(data)
    while off + _FRAME.size <= n:
        length, crc = _FRAME.unpack_from(data, off)
        end = off + _FRAME.size + length
        if length == 0 or length > MAX_RECORD_BYTES or end > n:
            return records, off, True
        payload = data[off + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            return records, off, True
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return records, off, True
        if not isinstance(record, dict):
            return records, off, True
        records.append(record)
        off = end
    if off != n:
        return records, off, True  # trailing partial header
    return records, off, False


def segment_first_lsn(path: Union[str, Path]) -> Optional[int]:
    """First data LSN a segment holds, from its header frame (or None)."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_FRAME.size)
            if len(head) < _FRAME.size:
                return None
            length, crc = _FRAME.unpack(head)
            if length == 0 or length > MAX_RECORD_BYTES:
                return None
            payload = fh.read(length)
    except OSError:
        return None
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(record, dict) or record.get("t") != "h":
        return None
    return int(record.get("first", 0)) or None


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
        #: ``(require, wait_fn)`` — quorum-commit barrier consulted by
        #: :meth:`wait_durable` after local durability (see
        #: :meth:`set_quorum`); None keeps durability primary-local
        self._quorum: Optional[
            Tuple[int, Callable[[int, Optional[float]], bool]]
        ] = None
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

        Group-commit mode returns immediately (use :meth:`wait_durable`
        or :meth:`sync` for durability); ``sync_each`` mode returns
        only after the record is fsynced.
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
                # already pending it is inside its window (or writing
                # the previous batch) and will pick this one up.
                if not self._pending:
                    self._cond.notify_all()
                self._pending.append((lsn, frame, monotonic()))
        return lsn

    def set_quorum(
        self,
        require: int,
        wait: Callable[[int, Optional[float]], bool],
    ) -> None:
        """Arm quorum commit: ``wait(lsn, timeout)`` must return True
        once ``require`` subscribed standbys have durably mirrored the
        COMMIT watermark for ``lsn``.

        Installed by the replication source when
        ``PersistenceConfig.quorum_standbys`` is set; after this,
        :meth:`wait_durable` resolves only when the record is durable
        locally *and* on the quorum.  ``require <= 0`` or ``wait=None``
        disarms.
        """
        if require <= 0 or wait is None:
            self._quorum = None
        else:
            self._quorum = (require, wait)

    def wait_durable(self, lsn: int, timeout: Optional[float] = None) -> bool:
        """Block until ``lsn`` is fsynced; False on timeout or failure.

        With quorum commit armed (:meth:`set_quorum`), local durability
        is only half the contract: the call then also waits for the
        standby quorum to mirror ``lsn`` and returns False on a quorum
        timeout — an ack the caller never sees is an ack the cluster
        never gave.
        """
        deadline = None if timeout is None else monotonic() + timeout
        if not self._wait_local_durable(lsn, deadline):
            return False
        with self._cond:
            quorum = self._quorum
        if quorum is None:
            return True
        require, wait = quorum
        budget = self.config.quorum_timeout_s
        if deadline is not None:
            budget = min(budget, max(0.0, deadline - monotonic()))
        t0 = perf_counter()
        try:
            acked = bool(wait(lsn, budget))
        except Exception:
            acked = False
        if _obs.enabled():
            _M_QUORUM_WAIT.observe(perf_counter() - t0)
        if not acked:
            _M_QUORUM_TIMEOUT.inc(shard=self.label)
            _LOG.warning("persist.quorum_timeout", shard=self.label,
                         lsn=lsn, require=require, waited_s=budget)
        return acked

    def _wait_local_durable(
        self, lsn: int, deadline: Optional[float]
    ) -> bool:
        """Block until ``lsn`` is fsynced *here*; no quorum involved."""
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
        """Flush everything appended so far; True when all durable.

        Deliberately local-only even with quorum commit armed: quorum
        is a property of client-visible acks (a traced END's
        ``wait_durable``), not of shutdown flushes — by the time a
        journal syncs for close, the shipping link may already be
        severed, and that must not read as a quorum timeout.
        """
        with self._cond:
            target = self._next_lsn - 1
        deadline = None if timeout is None else monotonic() + timeout
        return self._wait_local_durable(target, deadline)

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
        window = self.config.group_window_s
        while True:
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait(0.05)
                if not self._pending and self._stop:
                    return
                if window > 0 and not self._stop:
                    # Let the batch build: wait out the window so many
                    # sessions' records share one fsync.
                    deadline = monotonic() + window
                    while not self._stop:
                        remaining = deadline - monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                batch = self._pending
                self._pending = []
            try:
                # One span per fsync batch: request traces attribute
                # their fsync_wait to this window, and the span ties a
                # slow commit to its batch size/shard in the flight
                # recorder.
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
