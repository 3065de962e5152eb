"""Async gateway client: timeouts, heartbeats, backoff, resume.

The client half of the wire protocol, built for flaky networks rather
than loopback demos:

* **connect timeout** — ``asyncio.open_connection`` is bounded, never
  hangs on a black-holed SYN;
* **bounded exponential backoff** — connection attempts retry on a
  deterministic ``base * factor^k`` schedule capped at ``max_delay``
  (:func:`backoff_delays` is pure, so tests assert the schedule with a
  fake sleeper);
* **heartbeats** — an optional background task PINGs the server inside
  the idle window and records round-trip time in the
  ``repro_gateway_rtt_seconds`` histogram; a heartbeat that gets no
  reply within ``idle_timeout_s`` declares the connection dead;
* **reconnect-resume** — the client remembers every player id it has
  submitted; a reconnect HELLOs with that list and the server
  re-attaches live sessions (or immediately re-delivers END for ones
  that finished while the client was away).  Kill the client, restart
  it, resume by player id: the session never noticed.

Request/response matching uses a ``seq`` stamped into SUBMIT/INPUT
payloads and echoed by STATE/ERROR; END frames are matched by player
id, so they arrive whether or not a request is in flight.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs import tracing as _tracing
from ..persist.records import op_to_dict, ops_to_dicts
from .protocol import (
    END,
    ERROR,
    HELLO,
    INPUT,
    PING,
    QUERY,
    STATE,
    SUBMIT,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)

__all__ = [
    "GatewayClient",
    "GatewayClosed",
    "GatewayError",
    "GatewayRejected",
    "backoff_delays",
]

_M_RTT = _obs.histogram(
    "repro_gateway_rtt_seconds",
    "Client-observed PING round-trip time through the gateway",
)
_M_RETRIES = _obs.counter(
    "repro_gateway_client_retries_total",
    "Connection attempts beyond the first (reconnects and backoff retries)",
)

_LOG = _obslog.get_logger("gateway.client")


class GatewayError(RuntimeError):
    """Server answered with an ERROR frame; ``code`` is machine-readable."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class GatewayRejected(GatewayError):
    """Admission control refused the session (backpressure)."""


class GatewayClosed(ConnectionError):
    """The connection died and auto-reconnect was off (or exhausted)."""


def backoff_delays(
    attempts: int,
    base: float = 0.05,
    factor: float = 2.0,
    max_delay: float = 2.0,
) -> List[float]:
    """The bounded exponential retry schedule, as plain data.

    ``attempts`` is the number of *re*tries, i.e. sleeps between
    attempts; deterministic so the schedule itself is unit-testable.
    """
    if attempts < 0:
        raise ValueError("attempts must be >= 0")
    if base <= 0 or factor < 1.0 or max_delay < base:
        raise ValueError("need base > 0, factor >= 1, max_delay >= base")
    return [min(base * factor**k, max_delay) for k in range(attempts)]


#: (host, port) -> (reader, writer); injectable for tests
Connector = Callable[
    [str, int], Awaitable[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
]


async def _tcp_connector(
    host: str, port: int
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection(host, port)


class GatewayClient:
    """One logical client; survives reconnects, remembers its players."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_name: str = "repro-client",
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 30.0,
        idle_timeout_s: float = 30.0,
        heartbeat_s: float = 0.0,
        retries: int = 4,
        backoff_base_s: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max_s: float = 2.0,
        auto_reconnect: bool = False,
        trace_sample: float = 0.0,
        connector: Optional[Connector] = None,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.client_name = client_name
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.idle_timeout_s = idle_timeout_s
        self.heartbeat_s = heartbeat_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        self.auto_reconnect = auto_reconnect
        #: fraction of submits stamped with a fresh trace id (server
        #: attributes the request's phases under it; END echoes it)
        self.trace_sample = trace_sample
        self._trace_sampler = (
            _tracing.Sampler(trace_sample) if trace_sample > 0 else None
        )
        self._connector = connector or _tcp_connector
        self._sleep = sleep
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._decoder = FrameDecoder()
        self._seq = 0
        self._acks: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._ends: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._players: List[str] = []
        #: player id -> trace id for in-flight traced sessions; rides
        #: the resume HELLO so a reconnect re-attributes under the
        #: same id
        self._traces: Dict[str, str] = {}
        self._server_info: Dict[str, Any] = {}
        self._closing = False
        self._last_recv = 0.0

    # -- connection management -----------------------------------------
    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    @property
    def server_info(self) -> Dict[str, Any]:
        """The server's HELLO payload from the latest handshake."""
        return dict(self._server_info)

    async def connect(
        self,
        resume: Optional[Sequence[str]] = None,
        traces: Optional[Dict[str, str]] = None,
    ) -> Dict[str, str]:
        """Connect (with bounded backoff retry) and handshake.

        Returns the resume-status map from the server's HELLO:
        player id → ``live`` / ``done`` / ``unknown``.  Player ids
        submitted earlier on this client are always resumed.

        ``traces`` maps resumed player ids to request-trace ids from a
        previous process, so a restart can keep attributing under the
        ids it handed out before the crash (this client's own in-flight
        trace ids ride the resume HELLO automatically).
        """
        self._closing = False
        if traces:
            self._traces.update(traces)
        delays = backoff_delays(
            self.retries, self.backoff_base_s,
            self.backoff_factor, self.backoff_max_s,
        )
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                _M_RETRIES.inc()
                await self._sleep(delays[attempt - 1])
            try:
                reader, writer = await asyncio.wait_for(
                    self._connector(self.host, self.port),
                    timeout=self.connect_timeout_s,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_exc = exc
                continue
            self._reader, self._writer = reader, writer
            self._decoder = FrameDecoder()
            self._last_recv = perf_counter()
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop()
            )
            try:
                statuses = await self._handshake(resume)
            except (GatewayError, ConnectionError, OSError,
                    asyncio.TimeoutError) as exc:
                last_exc = exc
                await self._teardown()
                continue
            if self.heartbeat_s > 0:
                stale = self._heartbeat_task
                if stale is not None and stale.done():
                    # The previous loop died with its connection (e.g.
                    # its own auto-reconnect exhausted every retry and
                    # returned).  Clear the corpse, or this — and every
                    # future — connection would run unheartbeated.
                    self._heartbeat_task = None
                if self._heartbeat_task is None:
                    self._heartbeat_task = (
                        asyncio.get_running_loop().create_task(
                            self._heartbeat_loop()
                        )
                    )
            return statuses
        raise GatewayClosed(
            f"cannot reach gateway {self.host}:{self.port} after "
            f"{self.retries + 1} attempts: {last_exc}"
        )

    async def _handshake(
        self, resume: Optional[Sequence[str]]
    ) -> Dict[str, str]:
        pids = list(dict.fromkeys([*(resume or []), *self._players]))
        hello: Dict[str, Any] = {"client": self.client_name, "resume": pids}
        traces = {pid: self._traces[pid] for pid in pids if pid in self._traces}
        if traces:
            hello["traces"] = traces
        ack = await self._request(HELLO, hello)
        self._server_info = ack
        for pid in pids:
            if pid not in self._players:
                self._players.append(pid)
        return dict(ack.get("resumed") or {})

    async def reconnect(self) -> Dict[str, str]:
        """Tear down whatever is left and dial again, resuming players."""
        await self._teardown()
        return await self.connect()

    async def close(self) -> None:
        self._closing = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        await self._teardown()

    async def _teardown(self) -> None:
        task, self._reader_task = self._reader_task, None
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._fail_pending(GatewayClosed("connection closed"))

    def _fail_pending(self, exc: BaseException) -> None:
        acks, self._acks = self._acks, {}
        for future in acks.values():
            if not future.done():
                future.set_exception(exc)
        # END futures survive: a reconnect-resume can still deliver them

    # -- frame plumbing ------------------------------------------------
    async def _read_loop(self) -> None:
        reader = self._reader
        assert reader is not None
        cancelled = False
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self._last_recv = perf_counter()
                for ftype, payload in self._decoder.feed(data):
                    self._on_frame(ftype, payload)
        except (ConnectionError, OSError, ProtocolError) as exc:
            _LOG.warning("gateway.client.read_failed", detail=str(exc))
        except asyncio.CancelledError:
            cancelled = True  # a deliberate teardown, not a dead server
            raise
        finally:
            if not cancelled and not self._closing:
                self._fail_pending(GatewayClosed("server closed the connection"))
                if self.auto_reconnect:
                    asyncio.get_running_loop().create_task(self._auto_reconnect())

    async def _auto_reconnect(self) -> None:
        try:
            await self.reconnect()
        except GatewayClosed:
            # give up loudly: outstanding waits fail fast
            for future in self._ends.values():
                if not future.done():
                    future.set_exception(
                        GatewayClosed("auto-reconnect exhausted its retries")
                    )

    def _on_frame(self, ftype: int, payload: Dict[str, Any]) -> None:
        seq = payload.get("seq")
        if ftype == END:
            pid = payload.get("player")
            future = self._ends.get(pid) if isinstance(pid, str) else None
            if future is None and isinstance(pid, str):
                future = self._end_future(pid)
            if future is not None and not future.done():
                future.set_result(payload)
            return
        if seq is not None and seq in self._acks:
            future = self._acks.pop(seq)
            if not future.done():
                if ftype == ERROR:
                    code = str(payload.get("code", "error"))
                    exc_cls = (
                        GatewayRejected if code in ("rejected", "draining")
                        else GatewayError
                    )
                    future.set_exception(
                        exc_cls(code, str(payload.get("detail", "")))
                    )
                else:
                    future.set_result(payload)
            return
        if ftype == ERROR:
            _LOG.warning("gateway.client.server_error",
                         code=payload.get("code"),
                         detail=payload.get("detail"))

    def _send(self, ftype: int, payload: Dict[str, Any]) -> None:
        if self._writer is None or self._writer.is_closing():
            raise GatewayClosed("not connected")
        self._writer.write(encode_frame(ftype, payload))

    async def _request(
        self, ftype: int, payload: Dict[str, Any],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        self._seq += 1
        seq = self._seq
        payload = dict(payload)
        payload["seq"] = seq
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._acks[seq] = future
        try:
            self._send(ftype, payload)
            assert self._writer is not None
            await self._writer.drain()
            return await asyncio.wait_for(
                future, timeout or self.request_timeout_s
            )
        finally:
            self._acks.pop(seq, None)

    def _end_future(self, pid: str) -> "asyncio.Future[Dict[str, Any]]":
        future = self._ends.get(pid)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            self._ends[pid] = future
        return future

    # -- public API ----------------------------------------------------
    async def submit(
        self,
        player_id: str,
        ops: Sequence[Any],
        dt: float = 0.25,
        timeout: Optional[float] = None,
        trace: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit one scripted session; returns the admission STATE.

        Raises :class:`GatewayRejected` when admission control says no
        — callers decide whether to back off and retry.

        ``trace`` forces a request-trace id onto the submission;
        without it, the client's ``trace_sample`` may stamp one.  The
        STATE ack echoes whichever id the server actually attributes
        under (it may also be server-sampled), and
        :meth:`trace_for` remembers it until END.
        """
        self._end_future(player_id)  # register before the race can start
        trace_id = trace
        if trace_id is None and self._trace_sampler is not None \
                and self._trace_sampler():
            trace_id = _tracing.new_id()
        payload: Dict[str, Any] = {
            "player": player_id, "dt": dt, "ops": ops_to_dicts(ops),
        }
        if trace_id is not None:
            payload["trace"] = trace_id
        ack = await self._request(SUBMIT, payload, timeout=timeout)
        echoed = ack.get("trace")
        if isinstance(echoed, str) and echoed:
            trace_id = echoed
        if trace_id is not None:
            self._traces[player_id] = trace_id
        if player_id not in self._players:
            self._players.append(player_id)
        return ack

    def trace_for(self, player_id: str) -> Optional[str]:
        """The trace id of an in-flight traced session (None otherwise)."""
        return self._traces.get(player_id)

    async def send_input(
        self, player_id: str, op: Any, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Append one op to a live session (acknowledged best-effort)."""
        return await self._request(INPUT, {
            "player": player_id, "op": op_to_dict(op),
        }, timeout=timeout)

    async def query(
        self, player_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Read-only session status lookup (protocol v3).

        Against a read-replica gateway this answers from the standby's
        lag-bounded view (raising :class:`GatewayError` with code
        ``replica_lagging`` when the replica is too far behind);
        against a primary it reports live/done status.
        """
        return await self._request(QUERY, {"player": player_id},
                                   timeout=timeout)

    async def ping(self, timeout: Optional[float] = None) -> float:
        """Round-trip one PING; returns (and records) the RTT seconds."""
        t0 = perf_counter()
        await self._request(PING, {}, timeout=timeout)
        rtt = perf_counter() - t0
        _M_RTT.observe(rtt)
        return rtt

    async def resume(self, player_id: str) -> str:
        """Attach to a session by player id; ``live``/``done``/``unknown``.

        A ``done`` answer is followed by the END frame, so a
        :meth:`wait_end` after this returns immediately.
        """
        self._end_future(player_id)
        ack = await self._request(HELLO, {
            "client": self.client_name, "resume": [player_id],
        })
        if player_id not in self._players:
            self._players.append(player_id)
        return str((ack.get("resumed") or {}).get(player_id, "unknown"))

    async def wait_end(
        self, player_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block until the session's END frame arrives; returns it."""
        future = self._end_future(player_id)
        payload = await asyncio.wait_for(
            asyncio.shield(future), timeout or self.request_timeout_s
        )
        self._ends.pop(player_id, None)
        self._traces.pop(player_id, None)
        if player_id in self._players:
            self._players.remove(player_id)
        return payload

    # -- heartbeats ----------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        try:
            while not self._closing:
                await self._sleep(self.heartbeat_s)
                if self._closing or not self.connected:
                    continue
                idle = perf_counter() - self._last_recv
                if idle > self.idle_timeout_s:
                    _LOG.warning("gateway.client.idle", idle_s=round(idle, 3))
                    await self._teardown()
                    if self.auto_reconnect:
                        try:
                            await self.connect()
                        except GatewayClosed:
                            return
                    continue
                try:
                    await self.ping(timeout=self.idle_timeout_s)
                except (GatewayError, GatewayClosed, asyncio.TimeoutError):
                    continue  # the idle check above decides liveness
        except asyncio.CancelledError:
            raise

    async def __aenter__(self) -> "GatewayClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
