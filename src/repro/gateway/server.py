"""Asyncio TCP gateway: the wire edge of the sharded session server.

The :class:`~repro.serve.manager.SessionManager` is thread-based and
in-process; this module puts a network front on it without touching its
concurrency model.  One asyncio event loop owns every socket; the shard
threads keep owning every engine.  The two worlds meet at exactly two
thread-safe seams:

* **submit** — ``SessionManager.submit`` is lock-protected and cheap,
  so the event loop calls it directly when a SUBMIT frame arrives.
* **completion** — each gateway-built session carries an ``on_done``
  callback; the owning shard fires it (on the shard thread) after the
  final step, and the callback hops back onto the event loop with
  ``loop.call_soon_threadsafe`` to push the END frame.

Backpressure is explicit on both sides of a connection:

* **inbound** — frames are read one at a time and dispatched before the
  next read, so a flooding client is paced by its own socket buffer;
* **outbound** — every connection owns a *bounded* frame queue drained
  by a writer task.  A reader too slow to keep up fills the queue and
  is disconnected (counted in
  ``repro_gateway_slow_reader_drops_total``) rather than growing the
  server's heap — the same reject-don't-buffer stance the manager's
  admission control takes.

Graceful drain mirrors the serve layer: ``shutdown(drain=True)`` stops
accepting connections, waits for in-flight sessions (which flushes and
fsyncs every shard journal via ``SessionManager.shutdown``), flushes
each connection's outbound queue, and only then closes sockets — a
client watching its socket sees every END it is owed before EOF.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional

from .. import faultline as _fl
from ..obs import attribution as _attr
from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import span as _span
from ..persist.records import PersistError, op_from_dict, ops_from_dicts, state_digest
from ..serve.manager import SessionManager
from ..serve.session import ServedSession
from .protocol import (
    END,
    ERROR,
    FRAME_NAMES,
    HELLO,
    INPUT,
    PING,
    PROTOCOL_VERSION,
    QUERY,
    STATE,
    SUBMIT,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    negotiate_version,
)

__all__ = ["GatewayConfig", "GatewayServer", "GatewayThread"]

_M_CONNS = _obs.counter(
    "repro_gateway_connections_total",
    "TCP connections accepted by the gateway",
)
_M_ACTIVE = _obs.gauge(
    "repro_gateway_connections_active",
    "Currently open gateway connections",
)
_M_FRAMES = _obs.counter(
    "repro_gateway_frames_total",
    "Protocol frames processed, by direction and frame type",
)
_M_BYTES = _obs.counter(
    "repro_gateway_bytes_total",
    "Wire bytes moved through the gateway, by direction",
)
_M_HANDSHAKE = _obs.histogram(
    "repro_gateway_handshake_seconds",
    "Accept-to-HELLO-reply latency of one connection",
)
_M_SESSIONS = _obs.counter(
    "repro_gateway_sessions_total",
    "Sessions finished through the gateway, by outcome",
)
_M_REJECTED = _obs.counter(
    "repro_gateway_rejected_total",
    "SUBMIT frames rejected by admission control",
)
_M_PROTOERR = _obs.counter(
    "repro_gateway_protocol_errors_total",
    "Connections dropped for speaking the protocol wrong",
)
_M_DISCONNECTS = _obs.counter(
    "repro_gateway_disconnects_total",
    "Connections closed, by reason",
)
_M_SLOW = _obs.counter(
    "repro_gateway_slow_reader_drops_total",
    "Connections dropped because their outbound queue overflowed",
)

_LOG = _obslog.get_logger("gateway")


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """Knobs of the network edge (per connection unless noted)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``)
    port: int = 0
    #: reject any frame announcing a payload beyond this
    max_frame_bytes: int = 1 << 20
    #: bounded outbound frame queue; overflow = slow-reader disconnect
    outbound_queue_frames: int = 256
    #: a connection that sends nothing for this long is dropped
    #: (clients heartbeat with PING well inside it)
    idle_timeout_s: float = 60.0
    #: the HELLO frame must arrive this quickly after accept
    handshake_timeout_s: float = 10.0
    #: END payloads kept for clients that resume after completion
    finished_cache: int = 1024
    #: server-initiated request-trace sampling of SUBMITs that carry no
    #: client trace id (0.0 = only client-chosen traces; 1.0 = all)
    trace_sample: float = 0.0
    #: bind the live telemetry HTTP endpoint on this port (None =
    #: disabled, 0 = ephemeral; read it back from ``telemetry_port``)
    telemetry_port: Optional[int] = None
    #: telemetry bind address; None reuses ``host``
    telemetry_host: Optional[str] = None
    #: how often the telemetry server appends a metrics sample to the
    #: time-series ring
    telemetry_sample_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
        if self.outbound_queue_frames < 1:
            raise ValueError("outbound_queue_frames must be >= 1")
        if self.idle_timeout_s <= 0 or self.handshake_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.finished_cache < 0:
            raise ValueError("finished_cache must be >= 0")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be within [0, 1]")
        if self.telemetry_sample_interval_s <= 0:
            raise ValueError("telemetry_sample_interval_s must be positive")


class _LiveSession(ServedSession):
    """A served session that also drains gateway INPUT frames.

    ``extra`` is a deque shared with the event loop: the gateway
    appends ops from INPUT frames, the shard thread absorbs them into
    the script whenever it checks ``done``.  ``deque.popleft`` /
    ``list.append`` are atomic under the GIL, so no lock is needed; an
    op racing the session's completion is simply never absorbed (the
    client has already been sent END by then).
    """

    __slots__ = ("extra",)

    def __init__(
        self, *args: Any, extra: Optional[Deque[Any]] = None, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        #: may be shared with the gateway's player entry, so ops that
        #: arrived before the factory ran are already queued here
        self.extra: Deque[Any] = deque() if extra is None else extra

    def _absorb_extra(self) -> None:
        while True:
            try:
                op = self.extra.popleft()
            except IndexError:
                return
            self.ops.append(op)

    @property
    def done(self) -> bool:
        self._absorb_extra()
        return ServedSession.done.fget(self)  # type: ignore[attr-defined]


class _PlayerEntry:
    """Gateway-side bookkeeping for one submitted/resumed player."""

    __slots__ = ("player_id", "session", "conn", "done_payload", "extra",
                 "trace_id")

    def __init__(self, player_id: str) -> None:
        self.player_id = player_id
        #: set by the factory on the shard thread once the engine exists
        self.session: Optional[ServedSession] = None
        #: the connection owed STATE/END frames for this player
        self.conn: Optional["_Connection"] = None
        self.done_payload: Optional[Dict[str, Any]] = None
        #: INPUT-frame op queue shared with the (future) _LiveSession —
        #: allocated at SUBMIT time so ops arriving before the shard
        #: thread has even built the engine are not lost; None for
        #: recovered sessions, which replay a fixed script
        self.extra: Optional[Deque[Any]] = None
        #: request-trace id for this player's session (sampled requests
        #: only) — survives disconnects alongside the session itself
        self.trace_id: Optional[str] = None


class _Connection:
    """One accepted socket: reader loop + bounded writer queue."""

    def __init__(
        self,
        server: "GatewayServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.config = server.config
        self.decoder = FrameDecoder(self.config.max_frame_bytes)
        #: (frame_bytes, trace_id, trace_status) — None is the flush
        #: marker; a trace id rides with its END frame so the writer
        #: can close the trace's flush phase after the actual drain
        self.outbound: "asyncio.Queue[Optional[tuple]]" = asyncio.Queue(
            maxsize=self.config.outbound_queue_frames
        )
        self.peer = writer.get_extra_info("peername")
        self.closed = False
        self.close_reason = "eof"
        #: players owed frames here, in attach order (an insertion-
        #: ordered set); a player leaves once its END frame is queued
        self.players: Dict[str, None] = {}
        #: negotiated at HELLO: min(our version, the client's)
        self.version = PROTOCOL_VERSION
        self._writer_task: Optional[asyncio.Task] = None

    # -- outbound ------------------------------------------------------
    def send(
        self,
        ftype: int,
        payload: Dict[str, Any],
        trace: Optional[str] = None,
        trace_status: str = "ok",
    ) -> bool:
        """Enqueue one frame; a full queue drops the whole connection."""
        if self.closed:
            return False
        frame = encode_frame(ftype, payload, version=self.version)
        try:
            self.outbound.put_nowait((frame, trace, trace_status))
        except asyncio.QueueFull:
            _M_SLOW.inc()
            _LOG.warning("gateway.slow_reader", peer=str(self.peer),
                         queued=self.outbound.qsize())
            self.abort("slow_reader")
            return False
        _M_FRAMES.inc(direction="out", type=FRAME_NAMES[ftype])
        return True

    def send_error(
        self,
        code: str,
        detail: str = "",
        seq: Optional[int] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        payload: Dict[str, Any] = {"code": code}
        if detail:
            payload["detail"] = detail
        if seq is not None:
            payload["seq"] = seq
        if extra:
            payload.update(extra)
        self.send(ERROR, payload)

    async def _write_loop(self) -> None:
        try:
            while True:
                item = await self.outbound.get()
                if item is None:
                    break
                frame, trace, trace_status = item
                self.writer.write(frame)
                _M_BYTES.inc(len(frame), direction="out")
                await self.writer.drain()
                if trace is not None:
                    # the END frame is in the kernel's hands: close the
                    # flush phase and the whole request trace
                    store = _attr.get_store()
                    store.mark(trace, "flush")
                    store.finish(trace, status=trace_status)
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass

    # -- teardown ------------------------------------------------------
    def abort(self, reason: str) -> None:
        """Mark the connection dead; the reader loop finishes teardown."""
        if self.closed:
            return
        self.closed = True
        self.close_reason = reason
        if self._writer_task is not None:
            self._writer_task.cancel()
        self.writer.close()

    async def _finish(self) -> None:
        """Flush what the peer is still owed, then close the socket."""
        if not self.closed:
            self.closed = True
            try:
                self.outbound.put_nowait(None)  # flush marker
            except asyncio.QueueFull:
                if self._writer_task is not None:
                    self._writer_task.cancel()
        if self._writer_task is not None:
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.server._detach(self)
        _M_DISCONNECTS.inc(reason=self.close_reason)
        if _obs.enabled():
            _M_ACTIVE.set(len(self.server._connections))

    # -- inbound -------------------------------------------------------
    async def _read_frames(self, timeout: float) -> List[Any]:
        """One socket read, decoded; [] on clean EOF mid-nothing."""
        data = await asyncio.wait_for(self.reader.read(65536), timeout=timeout)
        if data:
            _M_BYTES.inc(len(data), direction="in")
            frames = self.decoder.feed(data)
        else:
            frames = []
        # A peer that hung up inside a frame left bytes the decoder can
        # never complete (mid-handshake disconnects land here): noted,
        # but not a protocol crime worth a counter that SLO-gates to
        # zero.  Checked on EOF, not just empty reads — on a fast
        # loopback the final data and the FIN arrive together, so the
        # read that drains the last bytes already observes at_eof().
        if self.reader.at_eof() and self.decoder.pending_bytes:
            self.close_reason = "truncated"
        return frames

    async def run(self) -> None:
        t_accept = perf_counter()
        _M_CONNS.inc()
        if _obs.enabled():
            _M_ACTIVE.set(len(self.server._connections))
        self._writer_task = asyncio.get_running_loop().create_task(
            self._write_loop()
        )
        try:
            with _span("gateway.handshake"):
                greeted = await self._handshake(t_accept)
            if greeted:
                await self._serve_frames()
        except asyncio.TimeoutError:
            self.close_reason = "idle"
            self.send_error("idle", "no frames within the idle timeout")
        except ProtocolError as exc:
            _M_PROTOERR.inc()
            self.close_reason = "protocol_error"
            _LOG.warning("gateway.protocol_error", peer=str(self.peer),
                         detail=str(exc))
            self.send_error("bad_frame", str(exc))
        except (ConnectionError, OSError):
            self.close_reason = "io_error"
        finally:
            await self._finish()

    async def _handshake(self, t_accept: float) -> bool:
        """First frame must be HELLO; reply in kind.  False on EOF."""
        frames: List[Any] = []
        while not frames:
            frames = await self._read_frames(self.config.handshake_timeout_s)
            if not frames and self.reader.at_eof():
                return False
        ftype, payload = frames[0]
        _M_FRAMES.inc(direction="in", type=FRAME_NAMES.get(ftype, "?"))
        if ftype != HELLO:
            raise ProtocolError(
                f"first frame must be HELLO, got {FRAME_NAMES.get(ftype, ftype)}"
            )
        # the decoder vouched the client's version is supported; speak
        # the lower of the two for the rest of the connection
        self.version = negotiate_version(
            self.decoder.last_version or PROTOCOL_VERSION
        )
        resumed = self.server._attach_players(
            self, payload.get("resume") or [],
            traces=payload.get("traces") if self.version >= 2 else None,
        )
        self.send(HELLO, {
            "server": "repro-gateway",
            "version": self.version,
            "shards": self.server.manager.config.n_shards,
            "resumed": resumed,
            "seq": payload.get("seq"),
        })
        _M_HANDSHAKE.observe(perf_counter() - t_accept)
        # END frames owed to already-finished resumed players
        for pid, status in resumed.items():
            if status == "done":
                self.server._push_end(self, pid)
        for ftype, payload in frames[1:]:
            self._dispatch(ftype, payload)
        return True

    def _live_trace_ids(self) -> List[str]:
        """Trace ids of the in-flight sessions riding this connection."""
        out: List[str] = []
        for pid in self.players:
            entry = self.server._players.get(pid)
            if entry is not None and entry.trace_id is not None \
                    and entry.done_payload is None:
                out.append(entry.trace_id)
        return out

    async def _serve_frames(self) -> None:
        while not self.closed:
            frames = await self._read_frames(self.config.idle_timeout_s)
            if not frames and self.reader.at_eof():
                return
            for ftype, payload in frames:
                if self.closed:
                    return
                if _fl.ACTIVE:
                    action = _fl.fire(
                        "gateway.frame", traces=self._live_trace_ids(),
                        peer=str(self.peer),
                        frame=FRAME_NAMES.get(ftype, "?"),
                    )
                    if action is not None:
                        if action.kind == "delay" and action.seconds > 0:
                            await asyncio.sleep(action.seconds)
                        elif action.kind == "drop":
                            # the wire died mid-frame-stream: this frame
                            # (and everything after it) is lost, the
                            # peer sees an abrupt disconnect
                            self.abort("fault_injected")
                            return
                self._dispatch(ftype, payload)

    def _dispatch(self, ftype: int, payload: Dict[str, Any]) -> None:
        _M_FRAMES.inc(direction="in", type=FRAME_NAMES.get(ftype, "?"))
        seq = payload.get("seq")
        if ftype == PING:
            self.send(PING, payload)  # echo, payload and all
        elif ftype == SUBMIT:
            self.server._handle_submit(self, payload)
        elif ftype == INPUT:
            self.server._handle_input(self, payload)
        elif ftype == QUERY:
            self.server._handle_query(self, payload)
        elif ftype == HELLO:
            resumed = self.server._attach_players(
                self, payload.get("resume") or [],
                traces=payload.get("traces") if self.version >= 2 else None,
            )
            self.send(HELLO, {
                "server": "repro-gateway",
                "version": self.version,
                "shards": self.server.manager.config.n_shards,
                "resumed": resumed,
                "seq": seq,
            })
            for pid, status in resumed.items():
                if status == "done":
                    self.server._push_end(self, pid)
        else:
            self.send_error(
                "unexpected_frame",
                f"{FRAME_NAMES.get(ftype, ftype)} is server-to-client",
                seq=seq,
            )


#: the single source of the standby-gateway write-refusal text; the
#: placement map (when one is attached) appends the current primary's
#: address so clients can re-route instead of guessing
READ_ONLY_DETAIL = (
    "this gateway serves a standby replica; writes go to the primary"
)


class GatewayServer:
    """The asyncio front-end; owns the listener and the player table.

    All mutable state (player table, connection set) is confined to the
    event loop; shard threads reach it only through
    ``call_soon_threadsafe``.  The manager may be passed unstarted —
    ``start()`` starts it — and with persistence configured,
    :meth:`recover` re-arms completion callbacks on every session the
    WAL rebuilds, so resumed clients still get their END frames.
    """

    def __init__(
        self,
        manager: SessionManager,
        game: Any,
        config: Optional[GatewayConfig] = None,
        with_video: bool = False,
        read_replica: Optional[Any] = None,
        placement: Optional[Any] = None,
    ) -> None:
        self.manager = manager
        self.game = game
        self.config = config or GatewayConfig()
        self.with_video = with_video
        #: a :class:`repro.replicate.StandbyReplica` (or anything with
        #: its ``query``/``status`` shape).  When set, this gateway is
        #: a *read replica*: SUBMIT/INPUT are rejected with a
        #: ``read_only`` error and QUERY answers from the replica's
        #: lag-bounded view instead of the live player table.
        self.read_replica = read_replica
        #: a :class:`repro.cluster.PlacementMap` (or anything with its
        #: ``primary_address`` shape); lets read-only refusals name the
        #: current primary so clients can re-route
        self.placement = placement
        self._players: Dict[str, _PlayerEntry] = {}
        self._finished: "OrderedDict[str, None]" = OrderedDict()
        self._connections: List[_Connection] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        #: deterministic head sampling of untraced SUBMITs
        self._sampler = (
            _attr.Sampler(self.config.trace_sample)
            if self.config.trace_sample > 0 else None
        )
        #: live telemetry endpoint (started with the listener when
        #: ``config.telemetry_port`` is set)
        self.telemetry: Optional[Any] = None

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``GatewayConfig(port=0)``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("gateway is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def telemetry_port(self) -> Optional[int]:
        """The telemetry endpoint's bound port (None when disabled)."""
        return self.telemetry.port if self.telemetry is not None else None

    def recover(self) -> List[Any]:
        """Rebuild persisted sessions and re-arm their END callbacks."""
        return self.manager.recover(
            self.game,
            with_video=self.with_video,
            session_hook=self._adopt_recovered,
        )

    def _adopt_recovered(self, session: ServedSession) -> None:
        entry = _PlayerEntry(session.player_id)
        entry.session = session
        self._players[session.player_id] = entry
        session.on_done = self._on_session_done

    async def start(self) -> "GatewayServer":
        """Bind the listener (and start the manager if needed)."""
        self._loop = asyncio.get_running_loop()
        if not self.manager._started:
            self.manager.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        if self.config.telemetry_port is not None:
            from .telemetry import TelemetryServer

            self.telemetry = TelemetryServer(
                self,
                host=self.config.telemetry_host or self.config.host,
                port=self.config.telemetry_port,
                sample_interval_s=self.config.telemetry_sample_interval_s,
            )
            await self.telemetry.start()
        _LOG.info("gateway.listening", host=self.config.host, port=self.port,
                  shards=self.manager.config.n_shards,
                  telemetry=self.telemetry_port)
        return self

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        if _fl.ACTIVE:
            action = _fl.fire(
                "gateway.accept",
                peer=str(writer.get_extra_info("peername")),
            )
            if action is not None:
                if action.kind == "delay" and action.seconds > 0:
                    await asyncio.sleep(action.seconds)
                elif action.kind == "partition":
                    # a network partition: every established connection
                    # is severed and the new one never gets through
                    for other in list(self._connections):
                        other.abort("fault_injected")
                    writer.close()
                    return
                elif action.kind == "drop":
                    writer.close()
                    return
        conn = _Connection(self, reader, writer)
        self._connections.append(conn)
        await conn.run()

    def _detach(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.remove(conn)
        for pid in conn.players:
            entry = self._players.get(pid)
            if entry is not None and entry.conn is conn:
                entry.conn = None  # session keeps running; resumable

    async def shutdown(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Drain sessions, flush journals, flush sockets, close.

        The ordering is the durability contract: the manager shuts
        down first (draining flushes and fsyncs every shard journal),
        so by the time any socket sees EOF the sessions it carried are
        either finished-and-durable or deliberately discarded.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, lambda: self.manager.shutdown(drain=drain, timeout=timeout)
        )
        for conn in list(self._connections):
            await conn._finish()
        if self._server is not None:
            await self._server.wait_closed()
        if self.telemetry is not None:
            # last: /healthz stays scrapeable through the whole drain
            await self.telemetry.stop()
            self.telemetry = None
        _LOG.info("gateway.shutdown", drained=drained)
        return drained

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's ``repro gateway serve`` body)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # -- player table (event loop only) --------------------------------
    def _attach_players(
        self,
        conn: _Connection,
        resume: List[str],
        traces: Optional[Dict[str, str]] = None,
    ) -> Dict[str, str]:
        """Attach ``conn`` to each resumed player; report each status.

        ``traces`` (protocol v2) maps player id → the trace id the
        client used before its connection (or the whole gateway
        process) died; a live resumed session is re-attributed under
        the same id, so the waterfall a client fetches after a
        kill-and-reconnect still answers for the request it actually
        made.
        """
        statuses: Dict[str, str] = {}
        traces = traces if isinstance(traces, dict) else {}
        for pid in resume:
            pid = str(pid)
            entry = self._players.get(pid)
            if entry is None:
                statuses[pid] = "unknown"
                continue
            if entry.conn is not None and entry.conn is not conn:
                entry.conn.players.pop(pid, None)  # moved to this socket
            entry.conn = conn
            conn.players[pid] = None
            statuses[pid] = "done" if entry.done_payload is not None else "live"
            tid = traces.get(pid)
            if (
                isinstance(tid, str) and tid
                and statuses[pid] == "live"
                and entry.trace_id is None
            ):
                session = entry.session
                if session is not None and _attr.get_store().start(
                    tid, player=pid, source="gateway", resumed=True
                ):
                    entry.trace_id = tid
                    # plain attribute store: visible to the shard thread
                    # by its next done-check; phases recorded from here
                    # on re-attribute to the resumed session
                    session.trace_id = tid
        return statuses

    def _push_end(self, conn: _Connection, pid: str) -> None:
        entry = self._players.get(pid)
        if entry is not None and entry.done_payload is not None:
            if conn.send(END, entry.done_payload):
                conn.players.pop(pid, None)

    def _read_only_detail(self) -> str:
        """The write-refusal text, naming the primary when it's known."""
        detail = READ_ONLY_DETAIL
        if self.placement is not None:
            try:
                addr = self.placement.primary_address()
            except Exception:
                addr = None
            if addr:
                detail += f" (current primary: {addr})"
        return detail

    def _handle_submit(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        seq = payload.get("seq")
        pid = payload.get("player")
        if not pid or not isinstance(pid, str):
            conn.send_error("bad_submit", "missing player id", seq=seq)
            return
        if self.read_replica is not None:
            conn.send_error("read_only", self._read_only_detail(), seq=seq)
            return
        if self._draining:
            conn.send_error("draining", "gateway is shutting down", seq=seq)
            return
        entry = self._players.get(pid)
        if entry is not None and entry.done_payload is None:
            conn.send_error("duplicate", f"session {pid!r} is live", seq=seq)
            return
        # Trace context: the client's id wins (v2 payload field), else
        # the server's own sampler may pick the request up.  Opening
        # the trace *before* parsing charges parse+admission to the
        # accept phase — the partition starts at frame receipt.
        store = _attr.get_store()
        trace_id = payload.get("trace") if conn.version >= 2 else None
        if not (isinstance(trace_id, str) and trace_id):
            trace_id = None
        if trace_id is None and self._sampler is not None and self._sampler():
            trace_id = _attr.new_trace_id()
        if trace_id is not None and not store.start(
            trace_id, player=pid, source="gateway"
        ):
            trace_id = None  # recording off, or a duplicate id
        try:
            ops = ops_from_dicts(payload.get("ops") or [])
            dt = float(payload.get("dt", 0.25))
        except (PersistError, KeyError, TypeError, ValueError) as exc:
            store.finish(trace_id, status="invalid")
            conn.send_error("bad_op", str(exc), seq=seq)
            return
        entry = _PlayerEntry(pid)
        entry.conn = conn
        entry.extra = deque()
        entry.trace_id = trace_id
        extra = entry.extra
        game, with_video, on_done = self.game, self.with_video, self._on_session_done
        finish = self._finish_session_threadsafe

        def factory(player_id: str) -> ServedSession:
            # Runs on the owning shard's thread: engine construction is
            # sharded, exactly like in-process submissions.
            try:
                engine = game.new_engine(with_video=with_video)
                session = _LiveSession(player_id, engine, ops, dt=dt,
                                       extra=extra)
            except Exception as exc:
                fail_payload: Dict[str, Any] = {
                    "player": player_id, "failed": True, "outcome": None,
                    "score": 0, "steps": 0, "digest": None,
                    "error": type(exc).__name__,
                }
                if trace_id is not None:
                    fail_payload["trace"] = trace_id
                finish(player_id, fail_payload)
                raise
            session.trace_id = trace_id
            session.on_done = on_done
            entry.session = session
            return session

        if not self.manager.submit(pid, factory):
            _M_REJECTED.inc()
            store.finish(trace_id, status="rejected")
            conn.send_error("rejected", "admission control refused", seq=seq)
            return
        # admission accepted: everything since frame receipt was accept
        store.mark(trace_id, "accept")
        self._players[pid] = entry
        conn.players[pid] = None
        ack: Dict[str, Any] = {
            "player": pid, "status": "admitted",
            "shard": self.manager.shard_for(pid), "seq": seq,
        }
        if trace_id is not None and conn.version >= 2:
            ack["trace"] = trace_id
        conn.send(STATE, ack)

    def _handle_input(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        seq = payload.get("seq")
        pid = payload.get("player")
        if self.read_replica is not None:
            conn.send_error("read_only", self._read_only_detail(), seq=seq)
            return
        entry = self._players.get(pid) if isinstance(pid, str) else None
        if entry is None:
            conn.send_error("unknown_player", f"no session {pid!r}", seq=seq)
            return
        if entry.done_payload is not None:
            conn.send_error("finished", f"session {pid!r} already ended", seq=seq)
            return
        try:
            op = op_from_dict(payload.get("op") or {})
        except (PersistError, KeyError, TypeError) as exc:
            conn.send_error("bad_op", str(exc), seq=seq)
            return
        if entry.extra is not None:
            # shared with the _LiveSession (which may not be built yet:
            # the factory runs on the shard thread, and an INPUT racing
            # it must not be lost)
            entry.extra.append(op)
            if entry.trace_id is not None:
                _attr.get_store().increment(entry.trace_id, "live_inputs")
        else:
            # recovered sessions replay a fixed script; late ops
            # cannot be spliced in deterministically
            conn.send_error("not_interactive", f"session {pid!r} "
                            "does not accept live input", seq=seq)
            return
        conn.send(STATE, {"player": pid, "status": "queued", "seq": seq})

    def _handle_query(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        """Read-only session status (protocol v3).

        On a read-replica gateway the answer comes from the standby's
        lag-bounded view; on a primary it reflects the live player
        table — either way QUERY never mutates anything.
        """
        seq = payload.get("seq")
        pid = payload.get("player")
        if not pid or not isinstance(pid, str):
            conn.send_error("bad_query", "missing player id", seq=seq)
            return
        if self.read_replica is not None:
            from ..replicate import ReplicaLagging

            try:
                view = self.read_replica.query(pid)
            except ReplicaLagging as exc:
                # lag_ticks + shard ride the ERROR frame so a load
                # balancer can back off proportionally, not blindly
                conn.send_error(
                    "replica_lagging", str(exc), seq=seq,
                    extra={
                        "lag_ticks": getattr(exc, "lag_ticks", None),
                        "shard": getattr(exc, "shard", None),
                    },
                )
                return
            except KeyError:
                conn.send_error("unknown_player", f"no session {pid!r}", seq=seq)
                return
            view = dict(view)
            view["seq"] = seq
            conn.send(STATE, view)
            return
        entry = self._players.get(pid)
        if entry is None:
            conn.send_error("unknown_player", f"no session {pid!r}", seq=seq)
            return
        if entry.done_payload is not None:
            ack = {
                "player": pid, "status": "done", "seq": seq,
                "digest": entry.done_payload.get("digest"),
                "outcome": entry.done_payload.get("outcome"),
            }
        else:
            ack = {
                "player": pid, "status": "live", "seq": seq,
                "shard": self.manager.shard_for(pid),
            }
        conn.send(STATE, ack)

    # -- completion bridge ---------------------------------------------
    def _on_session_done(self, session: ServedSession) -> None:
        """Shard-thread side of the bridge: snapshot, then hop loops."""
        state = session.engine.state
        payload = {
            "player": session.player_id,
            "failed": bool(session.failed),
            "outcome": None if session.failed else state.outcome,
            "score": 0 if session.failed else state.score,
            "steps": session.steps,
            "digest": None if session.failed else state_digest(state),
        }
        if session.trace_id is not None:
            payload["trace"] = session.trace_id
        self._finish_session_threadsafe(session.player_id, payload)

    def _finish_session_threadsafe(
        self, pid: str, payload: Dict[str, Any]
    ) -> None:
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._finish_session, pid, payload)
        except RuntimeError:  # loop shut down mid-flight
            pass

    def _finish_session(self, pid: str, payload: Dict[str, Any]) -> None:
        """Event-loop side: record the END payload and push it out."""
        _M_SESSIONS.inc(
            outcome="failed" if payload.get("failed") else "completed"
        )
        entry = self._players.get(pid)
        if entry is None:  # recovered session nobody resumed yet
            entry = self._players[pid] = _PlayerEntry(pid)
        entry.done_payload = payload
        entry.session = None
        tid = payload.get("trace")
        tid = tid if isinstance(tid, str) and tid else None
        status = "failed" if payload.get("failed") else "ok"
        sent = False
        if entry.conn is not None:
            sent = entry.conn.send(END, payload, trace=tid,
                                   trace_status=status)
            if sent:
                entry.conn.players.pop(pid, None)
        if tid is not None and not sent:
            # nobody connected to flush to: the trace ends here with a
            # zero-width flush (the END is parked for a later resume)
            store = _attr.get_store()
            store.mark(tid, "flush")
            store.finish(tid, status=status)
        # Bounded memory for unclaimed results: oldest finished
        # sessions age out of the resume window first.
        self._finished[pid] = None
        self._finished.move_to_end(pid)
        while len(self._finished) > self.config.finished_cache:
            old, _ = self._finished.popitem(last=False)
            self._players.pop(old, None)


class GatewayThread:
    """Run a :class:`GatewayServer` on a dedicated event-loop thread.

    The synchronous façade the CLI bench, the benchmarks and the tests
    use: ``start()`` returns once the port is bound; ``stop()`` drains
    and joins.  Usable as a context manager.
    """

    def __init__(self, server: GatewayServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def telemetry_port(self) -> Optional[int]:
        return self.server.telemetry_port

    def start(self, timeout: float = 10.0) -> "GatewayThread":
        loop = asyncio.new_event_loop()
        self._loop = loop

        def runner() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # surfaced to the caller below
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            loop.run_forever()
            # cancel stragglers so the loop closes clean
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("gateway thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("gateway startup failed") from self._startup_error
        return self

    def stop(self, drain: bool = True, timeout: float = 60.0) -> bool:
        if self._loop is None or self._thread is None:
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain, timeout=timeout), self._loop
        )
        try:
            drained = future.result(timeout=timeout + 10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None
        return drained

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop(drain=not any(exc))
