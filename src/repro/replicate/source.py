"""The primary side of replication: tail shard journals, ship records.

A :class:`ReplicationSource` runs next to a persisted
:class:`~repro.serve.manager.SessionManager` and serves the REPL
protocol on its own TCP listener.  Each standby mirrors every shard
and opens one connection per shard; the source answers the handshake
(bootstrapping from snapshots when compaction has already eaten the
requested prefix) and then streams every new WAL record as it becomes
file-visible.

**Tailing.**  The journal's group-commit flusher writes each batch to
its segment file just before it fsyncs it, and the tailer ships
records as soon as the file shows them: complete CRC-valid frames,
read through the same frame decoder recovery's scan uses,
incrementally.  A shipped record may therefore still be in the
primary's fsync.  A partial frame at EOF is a batch still being
written: wait, never guess.  Each batch goes out as one APPEND frame,
which the standby logs, fsyncs and applies before it acks.  The serve
layer's replication hook (:meth:`attach`) wakes a shard's tailer right
after each group commit is durable; ``poll_interval_s`` is only the
fallback/heartbeat cadence.

**Fencing.**  Every handshake carries the standby's epoch.  A standby
ahead of this source's own epoch is proof of a completed promotion
somewhere — the source answers ``fenced`` and refuses to ship, so a
deposed primary that comes back cannot split the brain.
"""

from __future__ import annotations

import socket
import threading
from pathlib import Path
from time import monotonic, sleep
from typing import Any, Dict, List, Optional

from .. import faultline as _fl
from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import span as _span
from ..persist.snapshot import SnapshotStore, snapshot_dir_for
from ..persist.wal import (
    PersistenceConfig,
    decode_frames,
    list_segments,
    segment_first_lsn,
    segment_path,
)
from .promote import read_epoch
from .protocol import (
    ProtocolError,
    R_ACK,
    R_APPEND,
    R_ERROR,
    R_HANDSHAKE,
    R_HEARTBEAT,
    encode,
    hard_close,
    make_decoder,
    require,
)

__all__ = ["ReplicationSource"]

_M_SHIPPED = _obs.counter(
    "repro_repl_shipped_records_total",
    "WAL records shipped to standbys, by shard",
)
_M_BATCHES = _obs.counter(
    "repro_repl_shipped_batches_total",
    "APPEND batches shipped to standbys, by shard",
)
_M_FENCED = _obs.counter(
    "repro_repl_fenced_total",
    "Handshakes refused because the peer's epoch fences this source",
)
_M_SNAP_BOOT = _obs.counter(
    "repro_repl_snapshot_bootstraps_total",
    "Standby handshakes answered with a snapshot bootstrap",
)
_M_ACKS = _obs.counter(
    "repro_quorum_acks_total",
    "Durable-mirror ACKs received from standbys, by shard",
)

_LOG = _obslog.get_logger("replicate")


class _Tailer:
    """Incremental frame scan over one shard's segment files.

    Frames go through :func:`~repro.persist.wal.decode_frames`, the
    decoder recovery's scan uses, so the tailer ships exactly the
    records a scan keeps.  Where the scan would call the rest of the
    file torn, the tailer waits instead: a partial frame at the end of
    the active segment is a batch still being written.  It remembers
    only ``(segment seq, byte offset, next LSN)``.  It moves on to the
    next segment once that one exists and this one is read to its end
    (the journal seals a segment before it opens the next); compaction
    is survived by re-latching onto the earliest remaining segment.
    """

    def __init__(self, directory: Path, start_lsn: int) -> None:
        self.directory = Path(directory)
        self.next_lsn = start_lsn
        self.seq: Optional[int] = None
        self.offset = 0

    def _latch(self) -> Optional[Path]:
        """Pick the segment that should contain ``next_lsn``."""
        segments = list_segments(self.directory)
        if not segments:
            return None
        chosen = segments[0]
        for seq, path in segments:
            first = segment_first_lsn(path)
            if first is not None and first <= self.next_lsn:
                chosen = (seq, path)
            else:
                break
        self.seq, path = chosen
        self.offset = 0
        return path

    def _current_path(self) -> Optional[Path]:
        if self.seq is None:
            return self._latch()
        path = segment_path(self.directory, self.seq)
        if not path.exists():  # compacted away under us: re-latch
            return self._latch()
        return path

    def read_batch(self, max_records: int) -> List[Dict[str, Any]]:
        """Complete, new records since the last call (may be empty)."""
        out: List[Dict[str, Any]] = []
        while len(out) < max_records:
            path = self._current_path()
            if path is None:
                return out
            # checked before the read: once the next segment exists,
            # this one is sealed and the read below sees all of it
            sealed = segment_path(self.directory, self.seq + 1).exists()
            try:
                with open(path, "rb") as fh:
                    fh.seek(self.offset)
                    data = fh.read()
            except OSError:
                return out
            consumed = 0
            for record, consumed in decode_frames(data):
                if record.get("t") == "h":
                    continue
                lsn = int(record.get("n", 0))
                if lsn < self.next_lsn:
                    continue  # resume overlap: already shipped
                out.append(record)
                self.next_lsn = lsn + 1
                if len(out) >= max_records:
                    break
            self.offset += consumed
            if consumed:
                continue  # the same segment may hold more
            if sealed and not data:
                self.seq += 1
                self.offset = 0
                continue
            return out
        return out


class ReplicationSource:
    """TCP listener shipping one persistence root's WAL to standbys."""

    def __init__(
        self,
        persistence: PersistenceConfig,
        n_shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_max_records: int = 256,
        poll_interval_s: float = 0.02,
        heartbeat_s: float = 0.1,
    ) -> None:
        self.persistence = persistence
        self.n_shards = n_shards
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.batch_max_records = batch_max_records
        self.poll_interval_s = poll_interval_s
        self.heartbeat_s = heartbeat_s
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._conns_lock = threading.Lock()
        self._stop = threading.Event()
        #: per-shard wakeups, set after each durable group commit
        self._wakeups = [threading.Event() for _ in range(n_shards)]
        #: quorum ledger: shard -> {standby client -> highest acked LSN}
        self._acks: Dict[int, Dict[str, int]] = {}
        self._ack_cond = threading.Condition()
        #: standby clients that have handshaken, in arrival order
        self._clients: Dict[str, None] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ReplicationSource":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(16)
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-repl-source", daemon=True
        )
        self._accept_thread.start()
        _LOG.info("repl.source_listening", host=self.host, port=self.port,
                  shards=self.n_shards)
        return self

    def stop(self) -> None:
        self._stop.set()
        for event in self._wakeups:
            event.set()
        with self._ack_cond:
            self._ack_cond.notify_all()  # release quorum waiters
        if self._sock is not None:
            hard_close(self._sock)  # wakes the blocked accept()
        self._sever_all()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._conn_threads):
            thread.join(timeout=5.0)

    def __enter__(self) -> "ReplicationSource":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- serve-layer seam ----------------------------------------------
    def notify(self, shard: int, lsn: int) -> None:
        """The manager's replication hook: ``lsn`` on ``shard`` is durable."""
        if 0 <= shard < self.n_shards:
            self._wakeups[shard].set()

    def attach(self, manager: Any) -> None:
        """Wire :meth:`notify` into a :class:`SessionManager`.

        With ``PersistenceConfig.quorum_standbys > 0`` this ledger's
        :meth:`wait_quorum` also gates each END on its end record's
        quorum ack.  Call before ``manager.start()`` — shard journals
        take the hook when they open on the shard threads.
        """
        manager.set_replication_hook(self.notify, self.wait_quorum)

    # -- quorum ledger (any thread) ------------------------------------
    def record_ack(self, shard: int, client: str, lsn: int) -> None:
        """Fold one standby's durable-mirror watermark into the ledger."""
        with self._ack_cond:
            shard_acks = self._acks.setdefault(shard, {})
            if lsn > shard_acks.get(client, 0):
                shard_acks[client] = lsn
                self._ack_cond.notify_all()
        if _obs.enabled():
            _M_ACKS.inc(shard=str(shard))

    def acked_count(self, shard: int, lsn: int) -> int:
        """How many standbys have durably mirrored ``lsn`` on ``shard``."""
        with self._ack_cond:
            return sum(
                1 for acked in self._acks.get(shard, {}).values()
                if acked >= lsn
            )

    def wait_quorum(
        self,
        shard: int,
        lsn: int,
        require: int,
        timeout: Optional[float] = None,
    ) -> bool:
        """Block until ``require`` standbys acked ``lsn``.

        A standby that died keeps its old acks — they were durable —
        but stops advancing, so quorum for new LSNs rides the survivors.
        """
        deadline = None if timeout is None else monotonic() + timeout
        with self._ack_cond:
            while True:
                if self.acked_count(shard, lsn) >= require:  # RLock: re-entrant
                    return True
                if self._stop.is_set():
                    return False
                if deadline is None:
                    self._ack_cond.wait(0.1)
                else:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        return False
                    self._ack_cond.wait(min(remaining, 0.1))

    def subscriptions(self) -> Dict[str, List[int]]:
        """Handshaken standby client -> the shards it mirrors (all)."""
        with self._ack_cond:
            return {name: list(range(self.n_shards)) for name in self._clients}

    # -- internals -----------------------------------------------------
    def _sever_all(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            hard_close(conn)  # wakes our ack readers, the peer's follower

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed
            # the link interleaves big APPENDs with tiny HEARTBEAT/ACK
            # frames; Nagle would hold the small ones behind the
            # peer's delayed ACK (~40ms), which quorum commit eats
            # on every END
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="repro-repl-ship", daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _recv_frames(self, conn: socket.socket, decoder: Any) -> List[Any]:
        data = conn.recv(65536)
        if not data:
            raise ConnectionError("replication peer hung up")
        return decoder.feed(data)

    def _serve_conn(self, conn: socket.socket) -> None:
        decoder = make_decoder()
        try:
            frames: List[Any] = []
            while not frames:
                frames = self._recv_frames(conn, decoder)
            ftype, payload = frames[0]
            if ftype != R_HANDSHAKE:
                conn.sendall(encode(R_ERROR, {
                    "code": "bad_handshake",
                    "detail": "first frame must be HANDSHAKE",
                }))
                return
            require(payload, "shard", "epoch", "start")
            shard = int(payload["shard"])
            if not 0 <= shard < self.n_shards:
                conn.sendall(encode(R_ERROR, {
                    "code": "bad_shard",
                    "detail": f"shard {shard} out of range",
                }))
                return
            client = str(payload.get("client") or "")
            if not client:
                try:
                    host, port = conn.getpeername()[:2]
                    client = f"peer-{host}:{port}"
                except OSError:
                    client = "peer-unknown"
            with self._ack_cond:
                self._clients[client] = None
            self._ship_shard(conn, shard, payload, client, decoder)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            hard_close(conn)
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _ack_loop(
        self, conn: socket.socket, decoder: Any, shard: int, client: str
    ) -> None:
        """Drain standby ACK frames off a shipping connection.

        Runs on its own thread so the ship loop never blocks on reads:
        the moment a standby fsyncs a batch its ack lands in the
        ledger and wakes every :meth:`wait_quorum` it satisfies.
        """
        try:
            while not self._stop.is_set():
                for ftype, payload in self._recv_frames(conn, decoder):
                    if ftype != R_ACK:
                        continue
                    try:
                        lsn = int(payload["lsn"])
                        ack_shard = int(payload.get("shard", shard))
                    except (KeyError, TypeError, ValueError):
                        continue
                    self.record_ack(
                        ack_shard,
                        str(payload.get("client") or client),
                        lsn,
                    )
        except (ConnectionError, OSError, ProtocolError, ValueError):
            pass  # link died: the follower reconnects and re-acks

    def _ship_shard(
        self,
        conn: socket.socket,
        shard: int,
        handshake: Dict[str, Any],
        client: str = "",
        decoder: Any = None,
    ) -> None:
        directory = self.persistence.shard_dir(shard)
        epoch = read_epoch(directory)
        peer_epoch = int(handshake["epoch"])
        if peer_epoch > epoch:
            # the standby has promoted past us: we are the stale
            # primary now, and shipping would split the brain
            _M_FENCED.inc()
            _LOG.warning("repl.fenced", shard=shard, ours=epoch,
                         theirs=peer_epoch)
            conn.sendall(encode(R_ERROR, {
                "code": "fenced", "shard": shard, "epoch": epoch,
                "detail": f"standby epoch {peer_epoch} fences epoch {epoch}",
            }))
            return
        start = max(1, int(handshake["start"]))
        reply: Dict[str, Any] = {"shard": shard, "epoch": epoch}
        first_on_disk = self._first_available_lsn(directory)
        if start < first_on_disk:
            # compaction already dropped the prefix the standby wants:
            # bootstrap it from the snapshots that replaced that prefix
            snapshots, _rejected = SnapshotStore(
                snapshot_dir_for(directory)
            ).load_all()
            reply["snapshots"] = list(snapshots.values())
            start = first_on_disk
            _M_SNAP_BOOT.inc()
            _LOG.info("repl.snapshot_bootstrap", shard=shard,
                      snapshots=len(snapshots), start=start)
        tailer = _Tailer(directory, start)
        reply["start"] = start
        reply["tip"] = self._tip_hint(directory)
        conn.sendall(encode(R_HANDSHAKE, reply))
        if decoder is not None:
            ack_thread = threading.Thread(
                target=self._ack_loop, args=(conn, decoder, shard, client),
                name=f"repro-repl-ack-{shard}", daemon=True,
            )
            ack_thread.start()

        label = str(shard)
        wakeup = self._wakeups[shard]
        last_beat = 0.0
        while not self._stop.is_set():
            records = tailer.read_batch(self.batch_max_records)
            if records:
                if _fl.ACTIVE and self._fire_fault(conn, label):
                    return
                with _span("repl.ship", shard=label, batch=len(records)):
                    conn.sendall(encode(R_APPEND, {
                        "shard": shard, "records": records,
                    }))
                if _obs.enabled():
                    _M_SHIPPED.inc(len(records), shard=label)
                    _M_BATCHES.inc(shard=label)
                last_beat = monotonic()
                continue
            now = monotonic()
            if now - last_beat >= self.heartbeat_s:
                conn.sendall(encode(R_HEARTBEAT, {
                    "shard": shard, "epoch": epoch,
                    "tip": tailer.next_lsn - 1,
                }))
                last_beat = now
            wakeup.wait(self.poll_interval_s)
            wakeup.clear()

    def _fire_fault(self, conn: socket.socket, label: str) -> bool:
        """``repl.link`` hook; True when this connection must die."""
        action = _fl.fire("repl.link", shard=label)
        if action is None:
            return False
        if action.kind == "delay" and action.seconds > 0:
            sleep(action.seconds)
            return False
        if action.kind == "partition":
            _LOG.warning("repl.link_partitioned", shard=label)
            self._sever_all()
            return True
        # drop: this shipping connection dies mid-stream
        _LOG.warning("repl.link_dropped", shard=label)
        hard_close(conn)
        return True

    @staticmethod
    def _first_available_lsn(directory: Path) -> int:
        segments = list_segments(directory)
        if not segments:
            return 1
        first = segment_first_lsn(segments[0][1])
        return first if first is not None else 1

    @staticmethod
    def _tip_hint(directory: Path) -> int:
        """Cheap tip estimate for the handshake (exact tips ride APPENDs)."""
        segments = list_segments(directory)
        if not segments:
            return 0
        first = segment_first_lsn(segments[-1][1])
        return (first - 1) if first is not None else 0
