"""Live telemetry endpoint: the gateway's observable surface over HTTP.

A deliberately minimal asyncio HTTP/1.1 server (GET only, one request
per connection, ``Connection: close``) that shares the gateway's event
loop and exposes what an operator — or the CI endpoint-smoke step —
needs while the gateway is serving:

``/metrics``
    The process metrics registry as Prometheus text exposition
    (:func:`repro.obs.export.render_prometheus`) — scrapeable by any
    real collector.
``/healthz``
    A JSON liveness/readiness summary: shard count, open connections,
    in-flight sessions, drain state.  Always 200 while the process is
    alive; ``status`` flips to ``draining`` during shutdown so the
    endpoint stays scrapeable through the whole drain.
``/trace/<id>``
    One request's phase timeline as JSON
    (:meth:`repro.obs.tracing.Tracer.get`): phases, phase totals and
    the nested in-thread spans with wall and CPU time — the payload
    ``repro obs trace`` renders as a waterfall.
``/traces``
    Recently finished trace ids plus the open-trace count, so tooling
    can find a sampled request without prior knowledge of its id.
``/history``
    The bounded time-series ring (:class:`repro.obs.metrics.TimeSeriesRing`)
    as JSON — metric history, not a point snapshot.

The server also owns the ring's sampling cadence: while running it
appends one registry sample every ``sample_interval_s``, so history
exists even when nobody is scraping.

Stdlib-only on purpose: pulling an HTTP framework into the serving
stack for five read-only routes would be the tail wagging the dog.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import get_tracer
from ..obs.export import render_prometheus

__all__ = ["TelemetryServer"]

_M_HTTP = _obs.counter(
    "repro_gateway_telemetry_requests_total",
    "Telemetry HTTP requests served, by route",
)

_LOG = _obslog.get_logger("gateway.telemetry")

#: cap on request-line + header bytes we are willing to buffer
_MAX_REQUEST_BYTES = 8192
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed"}


def _json_body(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class TelemetryServer:
    """The gateway's read-only HTTP sidecar (same event loop)."""

    def __init__(
        self,
        gateway: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        sample_interval_s: float = 0.5,
        history_limit: int = 256,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        self.gateway = gateway
        self.host = host
        self._port = port
        self.sample_interval_s = sample_interval_s
        self.history_limit = history_limit
        self._server: Optional[asyncio.AbstractServer] = None
        self._sampler_task: Optional[asyncio.Task] = None

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("telemetry server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "TelemetryServer":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self._port
        )
        self._sampler_task = asyncio.get_running_loop().create_task(
            self._sample_loop()
        )
        _LOG.info("telemetry.listening", host=self.host, port=self.port)
        return self

    async def stop(self) -> None:
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- ring cadence --------------------------------------------------
    async def _sample_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sample_interval_s)
            if _obs.enabled():
                _obs.get_ring().sample()

    # -- request handling ----------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, ctype, body = await self._respond(reader)
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, str, bytes]:
        try:
            request = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
        except asyncio.IncompleteReadError as exc:
            request = exc.partial
        except asyncio.LimitOverrunError:
            return 400, "text/plain", b"request too large\n"
        if len(request) > _MAX_REQUEST_BYTES:
            return 400, "text/plain", b"request too large\n"
        parts = request.split(b"\r\n", 1)[0].decode("latin-1").split()
        if len(parts) < 2:
            return 400, "text/plain", b"malformed request line\n"
        method, target = parts[0], parts[1]
        if method != "GET":
            return 405, "text/plain", b"GET only\n"
        return self._route(target.split("?", 1)[0])

    def _route(self, path: str) -> Tuple[int, str, bytes]:
        if path == "/metrics":
            _M_HTTP.inc(route="metrics")
            body = render_prometheus(_obs.snapshot()).encode("utf-8")
            return 200, "text/plain; version=0.0.4; charset=utf-8", body
        if path == "/healthz":
            _M_HTTP.inc(route="healthz")
            return 200, "application/json", _json_body(self._health())
        if path.startswith("/trace/"):
            _M_HTTP.inc(route="trace")
            trace_id = path[len("/trace/"):]
            timeline = get_tracer().get(trace_id)
            if timeline is None:
                return 404, "application/json", _json_body(
                    {"error": "unknown trace", "trace_id": trace_id}
                )
            return 200, "application/json", _json_body(timeline)
        if path == "/traces":
            _M_HTTP.inc(route="traces")
            store = get_tracer()
            return 200, "application/json", _json_body({
                "finished": store.finished_ids(),
                "open": store.open_count,
            })
        if path == "/history":
            _M_HTTP.inc(route="history")
            samples = _obs.get_ring().samples()
            return 200, "application/json", _json_body(
                {"samples": samples[-self.history_limit:]}
            )
        _M_HTTP.inc(route="other")
        return 404, "application/json", _json_body(
            {"error": "unknown path", "path": path}
        )

    def _health(self) -> Dict[str, Any]:
        gw = self.gateway
        manager = gw.manager
        health = {
            "status": "draining" if gw._draining else "ok",
            "shards": manager.config.n_shards,
            "connections": len(gw._connections),
            "in_flight": manager.in_flight,
            "completed": manager.completed_sessions,
            "failed": manager.failed_sessions,
            "obs_enabled": _obs.enabled(),
            "open_traces": get_tracer().open_count,
            "ring_samples": len(_obs.get_ring()),
        }
        replica = getattr(gw, "read_replica", None)
        if replica is not None:
            # read-replica gateway: surface per-shard shipping lag so a
            # scraper can tell "healthy standby" from "falling behind"
            try:
                health["replication"] = replica.status()
                health["status"] = "replica"
            except Exception:  # pragma: no cover - replica mid-teardown
                health["replication"] = {"error": "unavailable"}
        return health
