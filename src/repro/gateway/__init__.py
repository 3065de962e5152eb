"""Network gateway: the TCP wire edge of the VGBL serving layer.

``repro.gateway`` puts the sharded session server
(:mod:`repro.serve`) behind a real socket — the delivery gap between
an in-process benchmark and the paper's remote students:

* :mod:`repro.gateway.protocol` — length-prefixed, CRC-checked binary
  frames (HELLO / SUBMIT / INPUT / STATE / END / ERROR / PING) with a
  protocol version byte;
* :class:`~repro.gateway.server.GatewayServer` — an asyncio TCP server
  bridging the event loop to the shard threads (submit is
  lock-protected and cheap; completion hops back via
  ``call_soon_threadsafe``), with per-connection bounded outbound
  queues (slow readers are disconnected, not buffered) and graceful
  drain that flushes shard journals before closing sockets;
* :class:`~repro.gateway.client.GatewayClient` — connect/idle
  timeouts, PING heartbeats, bounded exponential-backoff retry, and
  reconnect-resume of live sessions by player id.

Everything is instrumented through :mod:`repro.obs`
(``repro_gateway_*`` connection/frame/byte counters, handshake and RTT
histograms) and asserted by the gateway rules in ``examples/slo.toml``.
"""

from .client import (
    GatewayClient,
    GatewayClosed,
    GatewayError,
    GatewayRejected,
    backoff_delays,
)
from .protocol import (
    FrameDecoder,
    FrameTooLarge,
    MAX_FRAME_BYTES,
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    ProtocolError,
    SUPPORTED_VERSIONS,
    VersionMismatch,
    encode_frame,
    negotiate_version,
)
from .server import GatewayConfig, GatewayServer, GatewayThread
from .telemetry import TelemetryServer

__all__ = [
    "FrameDecoder",
    "FrameTooLarge",
    "GatewayClient",
    "GatewayClosed",
    "GatewayConfig",
    "GatewayError",
    "GatewayRejected",
    "GatewayServer",
    "GatewayThread",
    "MAX_FRAME_BYTES",
    "MIN_PROTOCOL_VERSION",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SUPPORTED_VERSIONS",
    "TelemetryServer",
    "VersionMismatch",
    "backoff_delays",
    "encode_frame",
    "negotiate_version",
]
