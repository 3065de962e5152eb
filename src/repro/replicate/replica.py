"""The standby side: follow the stream, mirror the log, mirror the state.

A :class:`StandbyReplica` mirrors every shard of one primary: it keeps
one connection per shard to a
:class:`~repro.replicate.source.ReplicationSource` and maintains two
things in lockstep:

* **A durable copy of the log.**  Every shipped record is re-framed
  with the *same* CRC32 framing and the *same* LSN stamp the primary
  used, appended to ``wal-00000001.log`` under the standby's own
  ``shard-NN/`` directory, and fsynced once per shipped batch — so
  the standby's directory is, byte-for-byte in record content, a WAL
  the ordinary recovery path can adopt at promotion.
* **A warm in-memory mirror.**  Each fsynced batch is folded into a
  :class:`~repro.persist.records.SessionTable`, the same fold crash
  recovery runs, and then steps the sessions it touched through the
  shared
  :func:`~repro.persist.records.apply_scripted_op` on engines built by
  recovery's :func:`~repro.persist.recovery.rebuild_engine` — the
  replica's session states are therefore bit-identical to the
  primary's (asserted by SHA-256 state digests in the failover tests),
  and read-only queries are answered from memory with zero primary
  involvement, at whatever lag the shard has (the view reports it).

One APPEND frame is one commit.  Its handler, under the shard lock,
drops the LSNs it already applied, writes the rest to the mirror log,
fsyncs it, folds and applies them, and only then acks the batch's last
LSN — so the ack a quorum waits on never covers a record the standby
could lose, and state never runs ahead of the mirror log.  A handler
that dies between its write and its fsync leaves an un-fsynced tail
that promotion truncates (:meth:`_ReplicaLog.truncate_uncommitted`).
Duplicate delivery after a reconnect is harmless by construction:
LSNs at or below the applied watermark are counted and dropped.
"""

from __future__ import annotations

import os
import socket
import threading
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Union

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import span as _span
from ..persist import (
    SessionTable,
    SnapshotStore,
    rebuild_engine,
    snapshot_dir_for,
    state_digest,
)
from ..persist.records import apply_scripted_op, op_from_dict
from ..persist.wal import encode_frame as wal_encode_frame, segment_path
from ..serve.manager import shard_for
from .promote import read_epoch
from .protocol import (
    R_ACK,
    R_APPEND,
    R_ERROR,
    R_HANDSHAKE,
    R_HEARTBEAT,
    ProtocolError,
    ReplicationError,
    encode,
    hard_close,
    make_decoder,
    require,
)

__all__ = ["StandbyReplica"]

#: how long one connection attempt to the source may take
CONNECT_TIMEOUT_S = 2.0
#: pause before a shard follower redials a lost link
RECONNECT_BACKOFF_S = 0.02

_M_APPLIED = _obs.counter(
    "repro_repl_applied_records_total",
    "WAL records applied on the standby, by shard",
)
_M_DUP = _obs.counter(
    "repro_repl_duplicate_records_total",
    "Shipped records dropped as already-applied duplicates, by shard",
)
_M_APPLY_FAIL = _obs.counter(
    "repro_repl_apply_failures_total",
    "Shipped records the standby could not apply (unknown session or "
    "unknown record type), by shard",
)
_M_LAG = _obs.gauge(
    "repro_repl_lag_records",
    "Shipped-tip minus applied LSN on the standby, by shard",
)
_M_LINK_ERR = _obs.counter(
    "repro_repl_link_errors_total",
    "Replication link failures observed by the standby, by shard",
)
_M_RECONNECTS = _obs.counter(
    "repro_repl_reconnects_total",
    "Standby reconnect attempts after a lost link, by shard",
)
_M_APPLY = _obs.histogram(
    "repro_repl_apply_seconds",
    "Wall time to apply one shipped batch on the standby",
)
_M_QUERIES = _obs.counter(
    "repro_repl_queries_total",
    "Read-only replica queries answered, by result",
)

_LOG = _obslog.get_logger("replicate")


class _ReplicaLog:
    """The standby's durable copy of one shard's stream.

    Single segment, journal-compatible framing, original LSNs.  Tracks
    the byte offset of the last fsync so promotion can cut an
    un-fsynced tail byte-exactly.
    """

    def __init__(self, directory: Path, first_lsn: int) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = segment_path(self.directory, 1)
        # a stale log from an earlier standby incarnation is useless:
        # the in-memory mirror it backed is gone, so re-sync clean
        for entry in self.directory.glob("wal-*.log"):
            entry.unlink(missing_ok=True)
        self._fh = open(self.path, "ab")
        header = wal_encode_frame({"t": "h", "seg": 1, "first": first_lsn})
        self._fh.write(header)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.size = len(header)
        self.committed_bytes = self.size
        self.logged_lsn = first_lsn - 1

    def append(self, record: Dict[str, Any]) -> None:
        frame = wal_encode_frame(record)
        self._fh.write(frame)
        self.size += len(frame)
        self.logged_lsn = int(record["n"])

    def commit(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.committed_bytes = self.size

    def truncate_uncommitted(self) -> int:
        """Cut everything past the last fsync; bytes removed."""
        self.close()
        cut = self.size - self.committed_bytes
        if cut > 0:
            os.truncate(self.path, self.committed_bytes)
            self.size = self.committed_bytes
        return max(0, cut)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()
            except OSError:  # pragma: no cover - disk death
                pass
            self._fh = None


class _StandbyShard:
    """Everything one shard's follower thread owns."""

    def __init__(self, index: int, directory: Path) -> None:
        self.index = index
        self.label = str(index)
        self.directory = directory
        self.epoch = read_epoch(directory)
        #: highest LSN folded into ``sessions``
        self.applied_lsn = 0
        #: highest LSN fsynced into the mirror log (what an ACK reports)
        self.commit_lsn = 0
        self.tip = 0
        self.last_heartbeat: Optional[float] = None
        self.connected = False
        self.fenced = False
        #: the shared session fold; every entry has an engine between
        #: batches
        self.sessions = SessionTable()
        self.log: Optional[_ReplicaLog] = None
        self.lock = threading.Lock()
        self.sock: Optional[socket.socket] = None
        self.thread: Optional[threading.Thread] = None

    @property
    def lag(self) -> int:
        return max(0, self.tip - self.applied_lsn)

    def truncate_uncommitted(self) -> int:
        if self.log is None:
            return 0
        return self.log.truncate_uncommitted()

    def sample_lag(self) -> None:
        if _obs.enabled():
            _M_LAG.set(self.lag, shard=self.label)


class StandbyReplica:
    """A warm standby following every shard of one primary.

    ``client_name`` is the name its acks carry, so the source's quorum
    ledger can tell several standbys of one primary apart.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        game: Any,
        n_shards: int,
        host: str,
        port: int,
        *,
        client_name: str = "standby",
    ) -> None:
        self.directory = Path(directory)
        self.game = game
        self.n_shards = n_shards
        self.host = host
        self.port = port
        self.client_name = client_name
        self._stop = threading.Event()
        self._shards = [
            _StandbyShard(i, self.directory / f"shard-{i:02d}")
            for i in range(n_shards)
        ]
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "StandbyReplica":
        if self._started:
            raise RuntimeError("replica already started")
        self._started = True
        for st in self._shards:
            st.thread = threading.Thread(
                target=self._run_shard, args=(st,),
                name=f"repro-repl-standby-{st.index}", daemon=True,
            )
            st.thread.start()
        _LOG.info("repl.standby_started", dir=str(self.directory),
                  source=f"{self.host}:{self.port}", shards=self.n_shards)
        return self

    def stop(self) -> None:
        self._stop.set()
        for st in self._shards:
            sock = st.sock
            if sock is not None:
                hard_close(sock)  # the follower sees EOF and exits promptly
        for st in self._shards:
            if st.thread is not None:
                st.thread.join(timeout=5.0)
            if st.log is not None:
                st.log.close()

    @property
    def alive(self) -> bool:
        """Started and not stopped — the placement router's health bit."""
        return self._started and not self._stop.is_set()

    def __enter__(self) -> "StandbyReplica":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- introspection (any thread) ------------------------------------
    def shard_states(self) -> List[_StandbyShard]:
        """The per-shard states (the promotion path walks these)."""
        return list(self._shards)

    def heartbeat_age(self) -> float:
        """Seconds since the freshest shard heard from the primary.

        ``inf`` when no shard has ever heard a heartbeat — a standby
        that cannot reach its primary at all is promotable too.
        """
        ages = [
            monotonic() - st.last_heartbeat
            for st in self._shards
            if st.last_heartbeat is not None
        ]
        return min(ages) if ages else float("inf")

    def lag(self, shard: int) -> int:
        return self._shards[shard].lag

    def caught_up(self, tips: Dict[int, int]) -> bool:
        """Has every shard applied at least its target tip?"""
        return all(
            self._shards[i].applied_lsn >= tip for i, tip in tips.items()
        )

    def wait_caught_up(
        self, tips: Dict[int, int], timeout_s: float = 30.0
    ) -> bool:
        deadline = monotonic() + timeout_s
        while not self.caught_up(tips):
            if monotonic() >= deadline:
                return False
            self._stop.wait(0.01)
            if self._stop.is_set():
                return self.caught_up(tips)
        return True

    def status(self) -> Dict[str, Any]:
        """Per-shard replication health (telemetry / CLI / tests)."""
        shards = []
        for st in self.shard_states():
            with st.lock:
                shards.append({
                    "shard": st.index,
                    "connected": st.connected,
                    "fenced": st.fenced,
                    "epoch": st.epoch,
                    "applied_lsn": st.applied_lsn,
                    "commit_lsn": st.commit_lsn,
                    "tip": st.tip,
                    "lag": st.lag,
                    "sessions": len(st.sessions),
                    "ended": sum(
                        1 for s in st.sessions.values() if s.ended
                    ),
                    "heartbeat_age_s": (
                        None if st.last_heartbeat is None
                        else round(monotonic() - st.last_heartbeat, 3)
                    ),
                })
        return {
            "directory": str(self.directory),
            "source": f"{self.host}:{self.port}",
            "subscribed": list(range(self.n_shards)),
            "shards": shards,
        }

    def digests(self) -> Dict[str, str]:
        """SHA-256 state digest of every mirrored session."""
        out: Dict[str, str] = {}
        for st in self._shards:
            with st.lock:
                for sid, sess in st.sessions.items():
                    out[sid] = state_digest(sess.engine.state)
        return out

    def query(self, player_id: str) -> Dict[str, Any]:
        """Read-only view of one session, stamped with the shard's lag.

        Raises ``KeyError`` for a player the replica has never seen.
        """
        shard = shard_for(player_id, self.n_shards)
        st = self._shards[shard]
        with st.lock:
            sess = st.sessions.get(player_id)
            if sess is None:
                _M_QUERIES.inc(result="unknown")
                raise KeyError(player_id)
            _M_QUERIES.inc(result="ok")
            return {
                "player": player_id,
                "status": "done" if sess.ended else "replica",
                "shard": shard,
                "cursor": sess.cursor,
                "outcome": sess.outcome,
                "lsn": st.applied_lsn,
                "lag": st.lag,
                "epoch": st.epoch,
                "digest": state_digest(sess.engine.state),
            }

    # -- follower thread -----------------------------------------------
    def _run_shard(self, st: _StandbyShard) -> None:
        first = True
        while not self._stop.is_set() and not st.fenced:
            if not first:
                _M_RECONNECTS.inc(shard=st.label)
                self._stop.wait(RECONNECT_BACKOFF_S)
                if self._stop.is_set():
                    return
            first = False
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=CONNECT_TIMEOUT_S
                )
            except OSError:
                _M_LINK_ERR.inc(shard=st.label)
                continue
            sock.settimeout(None)
            # acks are tiny and latency-critical (quorum commit waits
            # on them); don't let Nagle batch them behind delayed ACKs
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            st.sock = sock
            st.connected = True
            try:
                self._follow(st, sock)
            except (ConnectionError, OSError, ProtocolError,
                    ReplicationError) as exc:
                if not self._stop.is_set() and not st.fenced:
                    _M_LINK_ERR.inc(shard=st.label)
                    _LOG.warning("repl.link_lost", shard=st.index,
                                 error=type(exc).__name__)
            finally:
                st.connected = False
                st.sock = None
                try:
                    sock.close()
                except OSError:
                    pass

    def _follow(self, st: _StandbyShard, sock: socket.socket) -> None:
        decoder = make_decoder()
        sock.sendall(encode(R_HANDSHAKE, {
            "shard": st.index,
            "epoch": st.epoch,
            "start": st.applied_lsn + 1,
            "client": self.client_name,
        }))
        while not self._stop.is_set():
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("replication source hung up")
            for ftype, payload in decoder.feed(data):
                self._handle(st, ftype, payload)

    def _handle(
        self, st: _StandbyShard, ftype: int, payload: Dict[str, Any]
    ) -> None:
        if ftype == R_HANDSHAKE:
            self._handle_handshake(st, payload)
        elif ftype == R_APPEND:
            self._handle_append(st, payload)
        elif ftype == R_HEARTBEAT:
            st.tip = max(st.tip, int(payload.get("tip", 0)))
            st.last_heartbeat = monotonic()
            with st.lock:
                st.sample_lag()
        elif ftype == R_ERROR:
            code = payload.get("code")
            if code == "fenced":
                st.fenced = True
                _LOG.warning("repl.standby_fenced", shard=st.index,
                             detail=payload.get("detail"))
            raise ReplicationError(
                f"source error {code!r}: {payload.get('detail', '')}"
            )
        else:  # pragma: no cover - decoder already filters
            raise ProtocolError(f"unexpected REPL frame {ftype}")

    def _handle_handshake(
        self, st: _StandbyShard, payload: Dict[str, Any]
    ) -> None:
        require(payload, "shard", "epoch", "start")
        source_epoch = int(payload["epoch"])
        if source_epoch < st.epoch:
            # a deposed primary came back: refuse to follow history
            # backwards (mirror image of the source-side fence)
            raise ReplicationError(
                f"source epoch {source_epoch} is behind ours {st.epoch}"
            )
        st.epoch = source_epoch
        start = int(payload["start"])
        st.tip = max(st.tip, int(payload.get("tip", 0)))
        st.last_heartbeat = monotonic()
        snapshots = payload.get("snapshots") or []
        with st.lock:
            if st.log is None:
                st.log = _ReplicaLog(st.directory, first_lsn=start)
            if snapshots:
                self._install_snapshots(st, snapshots)
            if start - 1 > st.applied_lsn:
                # the prefix below start lives in the snapshots, not
                # the stream
                st.applied_lsn = start - 1
                st.commit_lsn = max(st.commit_lsn, st.applied_lsn)
        # baseline ack: everything up to commit_lsn is already
        # durable here (mirrored before the link last died)
        self._send_ack(st)

    def _send_ack(self, st: _StandbyShard) -> None:
        """Report the durably mirrored watermark back to the source."""
        sock = st.sock
        if sock is None:
            return
        try:
            sock.sendall(encode(R_ACK, {
                "shard": st.index,
                "lsn": st.commit_lsn,
                "client": self.client_name,
            }))
        except OSError:
            pass  # link died mid-ack: reconnect re-acks the watermark

    def _install_snapshots(
        self, st: _StandbyShard, docs: List[Dict[str, Any]]
    ) -> None:
        store = SnapshotStore(snapshot_dir_for(st.directory))
        for doc in docs:
            try:
                sid = st.sessions.load_snapshot(doc)
            except (KeyError, TypeError, ValueError):
                _M_APPLY_FAIL.inc(shard=st.label)
                continue
            sess = st.sessions[sid]
            # mirrored durably too: the promoted directory must carry
            # the same resume points the primary had
            store.write(sid, sess.dt, sess.ops, sess.cursor, sess.state,
                        lsn=sess.covered_lsn)
        self._catch_up(st)

    def _handle_append(
        self, st: _StandbyShard, payload: Dict[str, Any]
    ) -> None:
        """Commit one shipped batch: drop duplicate LSNs, log and fsync
        the rest, fold them, step the sessions they touched, ack."""
        require(payload, "shard", "records")
        with st.lock:
            batch = []
            for record in payload["records"]:
                try:
                    lsn = int(record["n"])
                except (KeyError, TypeError, ValueError):
                    _M_APPLY_FAIL.inc(shard=st.label)
                    continue
                if lsn <= st.applied_lsn:
                    _M_DUP.inc(shard=st.label)
                    continue
                batch.append(record)
            if batch:
                last = int(batch[-1]["n"])
                if st.log is not None:
                    for record in batch:
                        # skip what a handler that died before its fold logged
                        if int(record["n"]) > st.log.logged_lsn:
                            st.log.append(record)
                    st.log.commit()
                st.commit_lsn = max(st.commit_lsn, last)
                st.tip = max(st.tip, last)
                t0 = perf_counter()
                with _span("repl.apply", shard=st.label, batch=len(batch)):
                    for record in batch:
                        orphans = st.sessions.fold(record)
                        if orphans:
                            _M_APPLY_FAIL.inc(orphans, shard=st.label)
                            _LOG.warning("repl.orphan_record", shard=st.index,
                                         lsn=record["n"], kind=record.get("t"))
                    st.applied_lsn = last
                    st.epoch = max(st.epoch, st.sessions.epoch)
                    self._catch_up(st)
                if _obs.enabled():
                    _M_APPLY.observe(perf_counter() - t0)
                    _M_APPLIED.inc(len(batch), shard=st.label)
            st.sample_lag()
        # the mirror is fsynced through the batch: tell the source, so
        # quorum-gated primaries can release the ENDs it covers
        self._send_ack(st)

    def _catch_up(self, st: _StandbyShard) -> None:
        """Bring the engines of the sessions the fold touched up to
        date: build a new one from its snapshot state, then step the
        folded ops through the shared step function.  Neither the
        state nor the op list is kept once applied."""
        table = st.sessions
        for sid in table.touched:
            sess = table[sid]
            if sess.engine is None:
                sess.engine = rebuild_engine(self.game, state=sess.state,
                                             dt=sess.dt)
                sess.state = None
            for op_dict in sess.replay:
                apply_scripted_op(sess.engine, op_from_dict(op_dict), sess.dt)
            sess.replay.clear()
        table.touched.clear()
