"""The standby side: follow the stream, mirror the log, mirror the state.

A :class:`StandbyReplica` keeps one connection per shard to a
:class:`~repro.replicate.source.ReplicationSource` and maintains two
things in lockstep:

* **A durable copy of the log.**  Every shipped record is re-framed
  with the *same* CRC32 framing and the *same* LSN stamp the primary
  used, appended to ``wal-00000001.log`` under the standby's own
  ``shard-NN/`` directory, and fsynced at each COMMIT watermark — so
  the standby's directory is, byte-for-byte in record content, a WAL
  the ordinary recovery path can adopt at promotion.
* **A warm in-memory mirror.**  Committed records are applied through
  the shared :func:`~repro.persist.records.apply_scripted_op` step
  semantics on engines built exactly like recovery builds them — the
  replica's session states are therefore bit-identical to the
  primary's (asserted by SHA-256 state digests in the failover tests),
  and read-only queries are answered from memory with zero primary
  involvement, as long as the shard's lag is inside the configured
  bound.

Apply is *commit-gated*: APPEND batches are buffered (and logged) but
only records at or below the last COMMIT watermark reach an engine.  A
link that dies between APPEND and COMMIT leaves an un-applied,
un-committed tail that promotion truncates — state never runs ahead of
what the primary had made durable.  Duplicate delivery after a
reconnect is harmless by construction: LSNs at or below the applied
watermark are counted and dropped.
"""

from __future__ import annotations

import os
import socket
import threading
from collections import deque
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Deque, Dict, List, Optional, Union

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import span as _span
from ..persist import (
    SnapshotStore,
    rebuild_engine,
    snapshot_dir_for,
    state_digest,
)
from ..persist.records import (
    REC_END,
    REC_FENCE,
    REC_INPUT,
    REC_START,
    apply_scripted_op,
    op_from_dict,
)
from ..persist.wal import encode_frame as wal_encode_frame, segment_path
from ..serve.manager import shard_for
from .promote import read_epoch
from .protocol import (
    R_ACK,
    R_APPEND,
    R_COMMIT,
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

__all__ = ["ReplicaLagging", "StandbyReplica"]

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
    "Wall time to apply one committed batch on the standby",
)
_M_QUERIES = _obs.counter(
    "repro_repl_queries_total",
    "Read-only replica queries answered, by result",
)

_LOG = _obslog.get_logger("replicate")


class ReplicaLagging(ReplicationError):
    """A read was refused because the shard's lag exceeds the bound.

    Carries how far behind the refusal was (``lag_ticks``, measured in
    WAL records — the replica's clock) and the owning ``shard``, so a
    router or load balancer can back off proportionally instead of
    treating every refusal the same.
    """

    def __init__(self, shard: int, lag_ticks: int, bound: int) -> None:
        self.shard = shard
        self.lag_ticks = lag_ticks
        self.bound = bound
        super().__init__(
            f"shard {shard} lags {lag_ticks} records (> bound {bound})"
        )


class _ReplicaLog:
    """The standby's durable copy of one shard's stream.

    Single segment, journal-compatible framing, original LSNs.  Tracks
    the byte offset of the last COMMIT so promotion can cut the
    un-committed tail byte-exactly.
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
        """Cut everything past the commit watermark; bytes removed."""
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


class _ReplicaSession:
    """One mirrored session: the replica-side twin of a ServedSession."""

    __slots__ = ("player_id", "dt", "ops", "cursor", "engine", "ended",
                 "outcome", "covered_lsn")

    def __init__(
        self,
        player_id: str,
        dt: float,
        ops: List[Dict[str, Any]],
        engine: Any,
        cursor: int = 0,
        covered_lsn: int = 0,
    ) -> None:
        self.player_id = player_id
        self.dt = dt
        self.ops = ops
        self.cursor = cursor
        self.engine = engine
        self.ended = False
        self.outcome: Optional[str] = None
        self.covered_lsn = covered_lsn


class _StandbyShard:
    """Everything one shard's follower thread owns."""

    def __init__(self, index: int, directory: Path) -> None:
        self.index = index
        self.label = str(index)
        self.directory = directory
        self.epoch = read_epoch(directory)
        self.applied_lsn = 0
        self.commit_lsn = 0
        self.tip = 0
        self.last_heartbeat: Optional[float] = None
        self.connected = False
        self.fenced = False
        self.sessions: Dict[str, _ReplicaSession] = {}
        self.pending: List[Dict[str, Any]] = []
        self.log: Optional[_ReplicaLog] = None
        self.lock = threading.Lock()
        self.lag_samples: Deque[int] = deque(maxlen=4096)
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
        lag = self.lag
        self.lag_samples.append(lag)
        if _obs.enabled():
            _M_LAG.set(lag, shard=self.label)


class StandbyReplica:
    """A warm standby following one primary — all shards or a subset.

    ``shards`` (default: every shard) is the subscription set: the
    standby opens one shipping connection per subscribed shard and
    advertises the full set in each handshake, so several standbys can
    split one primary's keyspace between them (the placement map in
    :mod:`repro.cluster` hands out the subsets).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        game: Any,
        n_shards: int,
        host: str,
        port: int,
        *,
        shards: Optional[List[int]] = None,
        max_read_lag_records: int = 64,
        reconnect_backoff_s: float = 0.05,
        connect_timeout_s: float = 2.0,
        client_name: str = "standby",
    ) -> None:
        self.directory = Path(directory)
        self.game = game
        self.n_shards = n_shards
        self.host = host
        self.port = port
        if shards is None:
            self.shards = list(range(n_shards))
        else:
            self.shards = sorted({int(s) for s in shards})
            bad = [s for s in self.shards if not 0 <= s < n_shards]
            if bad:
                raise ValueError(f"subscribed shards out of range: {bad}")
            if not self.shards:
                raise ValueError("subscription set must not be empty")
        self.max_read_lag_records = max_read_lag_records
        self.reconnect_backoff_s = reconnect_backoff_s
        self.connect_timeout_s = connect_timeout_s
        self.client_name = client_name
        self._stop = threading.Event()
        self._shards = {
            i: _StandbyShard(i, self.directory / f"shard-{i:02d}")
            for i in self.shards
        }
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "StandbyReplica":
        if self._started:
            raise RuntimeError("replica already started")
        self._started = True
        for st in self._shards.values():
            st.thread = threading.Thread(
                target=self._run_shard, args=(st,),
                name=f"repro-repl-standby-{st.index}", daemon=True,
            )
            st.thread.start()
        _LOG.info("repl.standby_started", dir=str(self.directory),
                  source=f"{self.host}:{self.port}", shards=self.shards)
        return self

    def stop(self) -> None:
        self._stop.set()
        for st in self._shards.values():
            sock = st.sock
            if sock is not None:
                hard_close(sock)  # the follower sees EOF and exits promptly
        for st in self._shards.values():
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
        return [self._shards[i] for i in sorted(self._shards)]

    def heartbeat_age(self) -> float:
        """Seconds since the freshest shard heard from the primary.

        ``inf`` when no shard has ever heard a heartbeat — a standby
        that cannot reach its primary at all is promotable too.
        """
        ages = [
            monotonic() - st.last_heartbeat
            for st in self._shards.values()
            if st.last_heartbeat is not None
        ]
        return min(ages) if ages else float("inf")

    def lag(self, shard: int) -> int:
        return self._shards[shard].lag

    def caught_up(self, tips: Dict[int, int]) -> bool:
        """Has every subscribed shard applied at least its target tip?"""
        return all(
            self._shards[i].applied_lsn >= tip
            for i, tip in tips.items()
            if i in self._shards
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
            "max_read_lag_records": self.max_read_lag_records,
            "subscribed": list(self.shards),
            "shards": shards,
        }

    def digests(self) -> Dict[str, str]:
        """SHA-256 state digest of every mirrored session."""
        out: Dict[str, str] = {}
        for st in self._shards.values():
            with st.lock:
                for sid, sess in st.sessions.items():
                    out[sid] = state_digest(sess.engine.state)
        return out

    def query(self, player_id: str) -> Dict[str, Any]:
        """Lag-bounded read-only view of one session.

        Raises :class:`ReplicaLagging` when the owning shard is behind
        by more than ``max_read_lag_records``; raises ``KeyError`` for
        a player the replica has never seen — including one whose
        owning shard is outside this standby's subscription set.
        """
        shard = shard_for(player_id, self.n_shards)
        st = self._shards.get(shard)
        if st is None:
            _M_QUERIES.inc(result="unsubscribed")
            raise KeyError(player_id)
        with st.lock:
            lag = st.lag
            if lag > self.max_read_lag_records:
                _M_QUERIES.inc(result="lagging")
                raise ReplicaLagging(shard, lag, self.max_read_lag_records)
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
                "lag": lag,
                "epoch": st.epoch,
                "digest": state_digest(sess.engine.state),
            }

    # -- follower thread -----------------------------------------------
    def _run_shard(self, st: _StandbyShard) -> None:
        first = True
        while not self._stop.is_set() and not st.fenced:
            if not first:
                _M_RECONNECTS.inc(shard=st.label)
                self._stop.wait(self.reconnect_backoff_s)
                if self._stop.is_set():
                    return
            first = False
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout_s
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
        with st.lock:
            # anything buffered but never committed on the old link
            # will be re-shipped: the handshake asks from applied+1
            st.pending.clear()
        sock.sendall(encode(R_HANDSHAKE, {
            "shard": st.index,
            "epoch": st.epoch,
            "start": st.applied_lsn + 1,
            "client": self.client_name,
            "subs": list(self.shards),
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
        elif ftype == R_COMMIT:
            self._handle_commit(st, payload)
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
        # baseline ack: everything up to the commit watermark is
        # already durable here (mirrored before the link last died)
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
                sid = str(doc["sid"])
                dt = float(doc.get("dt", 0.25))
                ops = list(doc.get("ops", []))
                cursor = int(doc.get("cursor", 0))
                state = doc["state"]
                lsn = int(doc.get("lsn", 0))
            except (KeyError, TypeError, ValueError):
                _M_APPLY_FAIL.inc(shard=st.label)
                continue
            engine = rebuild_engine(self.game, state=state, dt=dt)
            st.sessions[sid] = _ReplicaSession(
                sid, dt, ops, engine, cursor=cursor, covered_lsn=lsn,
            )
            # mirrored durably too: the promoted directory must carry
            # the same resume points the primary had
            store.write(sid, dt, ops, cursor, state, lsn=lsn)

    def _handle_append(
        self, st: _StandbyShard, payload: Dict[str, Any]
    ) -> None:
        require(payload, "shard", "records")
        records = payload["records"]
        with st.lock:
            for record in records:
                try:
                    lsn = int(record["n"])
                except (KeyError, TypeError, ValueError):
                    _M_APPLY_FAIL.inc(shard=st.label)
                    continue
                if lsn <= st.applied_lsn:
                    _M_DUP.inc(shard=st.label)
                    continue
                if st.log is not None and lsn > st.log.logged_lsn:
                    st.log.append(record)
                st.pending.append(record)

    def _handle_commit(
        self, st: _StandbyShard, payload: Dict[str, Any]
    ) -> None:
        require(payload, "shard", "lsn")
        commit = int(payload["lsn"])
        with st.lock:
            st.commit_lsn = max(st.commit_lsn, commit)
            st.tip = max(st.tip, commit)
            if st.log is not None:
                st.log.commit()
            ready = [r for r in st.pending if int(r["n"]) <= commit]
            st.pending = [r for r in st.pending if int(r["n"]) > commit]
            if ready:
                t0 = perf_counter()
                with _span("repl.apply", shard=st.label, batch=len(ready)):
                    for record in ready:
                        self._apply_record(st, record)
                if _obs.enabled():
                    _M_APPLY.observe(perf_counter() - t0)
                    _M_APPLIED.inc(len(ready), shard=st.label)
            st.sample_lag()
        # the mirror is fsynced up to the watermark: tell the source,
        # so quorum-gated primaries can resolve their wait_durable
        self._send_ack(st)

    def _apply_record(
        self, st: _StandbyShard, record: Dict[str, Any]
    ) -> None:
        kind = record.get("t")
        lsn = int(record["n"])
        sid = record.get("sid")
        if kind == REC_FENCE:
            st.epoch = max(st.epoch, int(record.get("epoch", st.epoch)))
        elif kind == REC_START:
            if sid not in st.sessions:
                dt = float(record.get("dt", 0.25))
                st.sessions[sid] = _ReplicaSession(
                    sid, dt, list(record.get("ops", [])),
                    rebuild_engine(self.game, dt=dt),
                )
        elif kind == REC_INPUT:
            sess = st.sessions.get(sid)
            if sess is None:
                _M_APPLY_FAIL.inc(shard=st.label)
                _LOG.warning("repl.orphan_record", shard=st.index,
                             lsn=lsn, sid=sid)
            elif lsn > sess.covered_lsn:
                apply_scripted_op(
                    sess.engine, op_from_dict(record.get("op", {})), sess.dt
                )
                sess.cursor += 1
        elif kind == REC_END:
            sess = st.sessions.get(sid)
            if sess is None:
                _M_APPLY_FAIL.inc(shard=st.label)
            else:
                sess.ended = True
                sess.outcome = record.get("out")
        else:
            _M_APPLY_FAIL.inc(shard=st.label)
        st.applied_lsn = lsn
